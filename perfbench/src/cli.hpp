#pragma once

// Harness command line and result report.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--smoke]
//
// Parsing is strict: an unknown flag or workload, a missing or
// malformed value, or a non-positive size is an error (exit code 2),
// never a silently defaulted run.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t {
  kServeWarmMetro = 1,
  kServeSmallMt = 2,
  kChurnMetro = 4,
  kPaperFig5 = 8,
};

[[nodiscard]] const char* to_string(Workload w);

struct Options {
  Workload workload = Workload::kServeWarmMetro;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Tiny sizes, every check still on: the benchmark's own tests.
  bool smoke = false;
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws UsageError on any malformed or missing argument.
[[nodiscard]] Options parse_options(const std::vector<std::string>& args);

/// A workload run's outcome. Metrics are the fixed catalogue declared in
/// BENCHMARK.json: with trace off every end-to-end metric, with trace on
/// every per-layer one. Each metric names the workloads that must set
/// it; a per-layer metric of a layer the workload never enters reads 0.
class Report {
 public:
  Report(Workload workload, bool trace);

  void set(const std::string& name, double value);
  /// One attempted operation; `ok` false counts it as failed (the
  /// program returned an error). The first few failures go to stderr.
  void op(bool ok, const char* what);
  /// One check of an output the program returned without error; a false
  /// `ok` makes the run incorrect.
  void check(bool ok, const char* what);
  /// Bulk form: `attempted` operations of which `failed` failed, and
  /// `wrong` failed checks, all described by `what`.
  void add(std::int64_t attempted, std::int64_t failed, std::int64_t wrong,
           const char* what);

  /// True when every operation succeeded and every check held.
  [[nodiscard]] bool clean() const { return failed_ == 0 && wrong_ == 0; }

  /// Prints the result line (the last line of stdout). Throws
  /// std::logic_error when a metric this workload owns was never set.
  void print() const;

 private:
  Workload workload_;
  bool trace_;
  std::map<std::string, double> values_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t wrong_ = 0;
};

}  // namespace perfbench
