# Runs EXE with the ;-list ARGS and fails unless it exits EXPECT_EXIT and
# prints a usage line (stdout for --help, stderr for a rejected flag).
#   cmake -DEXE=<bench> -DEXPECT_EXIT=<code> "-DARGS=<a;b>" -P expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARGS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected ${EXPECT_EXIT}\n"
          "stdout: ${out}\nstderr: ${err}")
endif()
if(EXPECT_EXIT EQUAL 0)
  set(usage_stream "${out}")
else()
  set(usage_stream "${err}")
endif()
if(NOT usage_stream MATCHES "usage: ")
  message(FATAL_ERROR "${EXE} ${ARGS}: no usage line\n"
          "stdout: ${out}\nstderr: ${err}")
endif()
