// perfbench_harness: one workload of the scheduler benchmark per process.
// See perfbench/README.md for the workloads, metrics and checks, and
// perfbench/run.py for the command the benchmark is run with.

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  try {
    opts = parse_options(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::cerr << "perfbench_harness: " << e.what()
              << "\nusage: perfbench_harness --workload "
                 "<serve_warm_metro|serve_small_mt|churn_metro|paper_fig5> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n";
    return 2;
  }
  try {
    Report report{opts.workload, opts.trace};
    switch (opts.workload) {
      case Workload::kServeWarmMetro:
        run_serve_warm_metro(opts, report);
        break;
      case Workload::kServeSmallMt:
        run_serve_small_mt(opts, report);
        break;
      case Workload::kChurnMetro:
        run_churn_metro(opts, report);
        break;
      case Workload::kPaperFig5:
        run_paper_fig5(opts, report);
        break;
    }
    report.print();
    // A run with a failed operation or check prints its counts, then
    // fails.
    return report.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << to_string(opts.workload)
              << " aborted: " << e.what() << "\n";
    return 3;
  }
}
