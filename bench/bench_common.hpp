// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "intsched/exp/experiment.hpp"
#include "intsched/exp/report.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "intsched/sim/stats.hpp"
#include "intsched/sim/strfmt.hpp"

namespace intsched::benchtool {

/// Log-linear latency histogram (HDR-style): exact below 8 ns, then 8
/// linear sub-buckets per power of two (~12.5% worst-case resolution).
/// Fixed footprint, no allocation on the record path — safe inside a
/// timed loop. Shared by micro_concurrent (per-reader rank latency) and
/// qps_serve (per-request decision latency); per-thread histograms merge
/// additively after the measurement window.
class LatencyHistogram {
 public:
  void record(std::int64_t ns) {
    ++buckets_[bucket_index(ns)];
    ++count_;
  }

  /// Pools another thread's histogram into this one (bucket-wise sum).
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  [[nodiscard]] std::int64_t count() const { return count_; }

  /// Upper bound (ns) of the bucket holding the q-th quantile
  /// (0 < q <= 1), nearest-rank; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto target = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) return static_cast<double>(bucket_upper(i));
    }
    return static_cast<double>(bucket_upper(kBuckets - 1));
  }

  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double p999() const { return quantile(0.999); }

 private:
  static constexpr std::size_t kBuckets = 8 * 62;

  static std::size_t bucket_index(std::int64_t ns) {
    const std::uint64_t v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    if (v < 8) return static_cast<std::size_t>(v);
    int width = 0;
    for (std::uint64_t w = v; w != 0; w >>= 1) ++width;  // bit width >= 4
    const int shift = width - 4;
    const std::uint64_t top = v >> shift;  // in [8, 15]
    const std::size_t idx = static_cast<std::size_t>(width - 3) * 8 +
                            static_cast<std::size_t>(top - 8);
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  static std::int64_t bucket_upper(std::size_t idx) {
    if (idx < 8) return static_cast<std::int64_t>(idx);
    const std::size_t width = idx / 8 + 3;
    const std::size_t top = idx % 8 + 8;
    return static_cast<std::int64_t>(((top + 1) << (width - 4)) - 1);
  }

  std::vector<std::int64_t> buckets_ = std::vector<std::int64_t>(kBuckets, 0);
  std::int64_t count_ = 0;
};

/// argv[0] without its directory (for usage lines and error prefixes).
inline std::string_view program_name(int argc, char** argv) {
  if (argc < 1 || argv[0] == nullptr) return "bench";
  const std::string_view path = argv[0];
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

struct Options {
  /// --full: paper scale (200 tasks per run). Default is a scaled-down run
  /// so the whole bench suite finishes in a few minutes.
  bool full = false;
  bool csv = false;
  std::uint64_t seed = 42;
  /// Independent repetitions (seed, seed+1, ...) pooled into the reported
  /// statistics; per-class means from a single 200-task run are noisy.
  std::int32_t reps = 2;
  /// --jobs=N: worker threads for independent trials (0 = hardware
  /// concurrency, the default). Output is byte-identical for every value.
  int jobs = 0;
};

// -- strict command lines ---------------------------------------------------
//
// Every bench rejects garbage flags the same way: an unknown flag or a
// malformed value prints a reason and the usage line on stderr and exits
// 2; --help (or -h) prints the usage line and exits 0. Nothing is
// silently ignored, so a typo never reads as a run with default options.

/// Whole-string number parse: "12x", "" and out-of-range values fail.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && !text.empty();
}

/// One flag of a strict command line: a bare switch (`--full`) or a
/// `--name=value` flag (the name includes the '='). `set` receives the
/// text after the name and returns false when it is malformed.
struct Flag {
  std::string_view name;
  std::function<bool(std::string_view)> set;
};

/// `set` for a bare switch.
inline std::function<bool(std::string_view)> set_true(bool& dst) {
  return [&dst](std::string_view) {
    dst = true;
    return true;
  };
}
/// `set` for a numeric value no smaller than `min`.
template <typename T>
std::function<bool(std::string_view)> number_at_least(T& dst, T min) {
  return [&dst, min](std::string_view v) {
    return parse_number(v, dst) && dst >= min;
  };
}
/// `set` for any numeric value of T's range.
template <typename T>
std::function<bool(std::string_view)> number(T& dst) {
  return [&dst](std::string_view v) { return parse_number(v, dst); };
}

enum class ParseOutcome : std::uint8_t { kRun, kHelp, kError };

/// Walks argv against `flags`: kHelp on --help/-h, kError (reason on
/// stderr, prefixed with the program name) on an unknown flag or a value
/// its `set` rejects, kRun otherwise.
inline ParseOutcome parse_flags(int argc, char** argv,
                                std::span<const Flag> flags) {
  const std::string_view prog = program_name(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return ParseOutcome::kHelp;
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [arg](const Flag& f) {
          return f.name.ends_with('=') ? arg.starts_with(f.name)
                                       : arg == f.name;
        });
    if (flag == flags.end()) {
      std::cerr << prog << ": unknown flag " << arg << "\n";
      return ParseOutcome::kError;
    }
    if (!flag->set(arg.substr(flag->name.size()))) {
      std::cerr << prog << ": malformed value in " << arg << "\n";
      return ParseOutcome::kError;
    }
  }
  return ParseOutcome::kRun;
}

/// parse_flags plus the exit contract: returns only on kRun.
inline void parse_flags_or_exit(int argc, char** argv,
                                std::span<const Flag> flags,
                                std::string_view usage) {
  switch (parse_flags(argc, argv, flags)) {
    case ParseOutcome::kHelp:
      std::cout << usage;
      std::exit(0);
    case ParseOutcome::kError:
      std::cerr << usage;
      std::exit(2);
    case ParseOutcome::kRun:
      break;
  }
}

/// The figure/ablation benches' command line (see Options).
inline Options parse_options(int argc, char** argv) {
  Options opts;
  const Flag flags[] = {
      {"--full", set_true(opts.full)},
      {"--csv", set_true(opts.csv)},
      {"--seed=", number(opts.seed)},
      {"--reps=", number_at_least(opts.reps, std::int32_t{1})},
      {"--jobs=", number_at_least(opts.jobs, 0)},
  };
  const std::string usage =
      "usage: " + std::string{program_name(argc, argv)} +
      " [--full] [--csv] [--seed=N] [--reps=N] [--jobs=N] [--help]\n";
  parse_flags_or_exit(argc, argv, flags, usage);
  return opts;
}

/// Baseline experiment configuration shared by the Fig. 5-9 benches.
inline exp::ExperimentConfig make_base_config(edge::WorkloadKind kind,
                                              const Options& opts) {
  exp::ExperimentConfig cfg;
  cfg.seed = opts.seed;
  cfg.workload.kind = kind;
  cfg.workload.total_tasks = opts.full ? 200 : 120;
  // Same mean task arrival rate for both workload kinds.
  cfg.workload.job_interval = kind == edge::WorkloadKind::kServerless
                                  ? sim::SimDuration::seconds(2)
                                  : sim::SimDuration::seconds(6);
  cfg.background.mode = exp::BackgroundMode::kRandomPairs;
  return cfg;
}

/// All repetitions of all policy arms of one experiment.
using SuiteResults =
    std::map<core::PolicyKind, std::vector<exp::ExperimentResult>>;

/// Runs `reps` repetitions (consecutive seeds) of every policy arm; each
/// repetition's arms share a seed, so per-rep comparisons stay paired.
/// Every (rep, arm) trial is an independent deterministic simulation, so
/// they run concurrently on a SweepRunner; results are merged rep-major in
/// arm order — the serial iteration order — so the suite is byte-identical
/// for every jobs value.
inline SuiteResults run_suite(const exp::ExperimentConfig& base,
                              const std::vector<core::PolicyKind>& arms,
                              std::int32_t reps, int jobs = 1) {
  std::vector<exp::ExperimentConfig> trials;
  trials.reserve(static_cast<std::size_t>(reps) * arms.size());
  for (std::int32_t rep = 0; rep < reps; ++rep) {
    exp::ExperimentConfig cfg = base;
    cfg.seed = base.seed + static_cast<std::uint64_t>(rep);
    for (const core::PolicyKind policy : arms) {
      cfg.policy = policy;
      trials.push_back(cfg);
    }
  }

  const exp::SweepRunner runner{jobs};
  std::vector<exp::ExperimentResult> results =
      runner.map<exp::ExperimentResult>(trials.size(), [&](std::size_t i) {
        return exp::run_experiment(trials[i]);
      });

  SuiteResults all;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    all[trials[i].policy].push_back(std::move(results[i]));
  }
  return all;
}

/// Runs `reps` repetitions (consecutive seeds, starting at `base.seed`) of
/// one fully configured arm. The repetitions are independent trials, so
/// they run concurrently; the returned vector is always in rep order, so
/// downstream aggregation is byte-identical for every jobs value.
inline std::vector<exp::ExperimentResult> run_reps(
    const exp::ExperimentConfig& base, std::int32_t reps, int jobs = 1) {
  const exp::SweepRunner runner{jobs};
  return runner.map<exp::ExperimentResult>(
      static_cast<std::size_t>(reps), [&base](std::size_t rep) {
        exp::ExperimentConfig cfg = base;
        cfg.seed = base.seed + static_cast<std::uint64_t>(rep);
        return exp::run_experiment(cfg);
      });
}

/// Task-level pooled mean of completion or transfer time for one class
/// across all repetitions of one arm.
inline std::optional<double> pooled_class_mean(
    const std::vector<exp::ExperimentResult>& reps, edge::TaskClass cls,
    bool transfer_time) {
  sim::RunningStats stats;
  for (const exp::ExperimentResult& r : reps) {
    for (const edge::TaskRecord* record : r.metrics.records()) {
      if (record->cls != cls || !record->is_complete()) continue;
      if (transfer_time) {
        if (record->transfer_end < sim::SimTime::zero()) continue;
        stats.add(record->transfer_time().to_seconds());
      } else {
        stats.add(record->completion_time().to_seconds());
      }
    }
  }
  if (stats.count() == 0) return std::nullopt;
  return stats.mean();
}

/// Pools per-task paired gains (vs the nearest arm, matched by rep and
/// task id) across repetitions.
inline std::vector<double> pooled_gains(const SuiteResults& results,
                                        core::PolicyKind treatment,
                                        bool use_transfer_time) {
  std::vector<double> gains;
  const auto& treat_reps = results.at(treatment);
  const auto& base_reps = results.at(core::PolicyKind::kNearest);
  for (std::size_t rep = 0;
       rep < std::min(treat_reps.size(), base_reps.size()); ++rep) {
    const std::vector<double> g = edge::paired_gains(
        treat_reps[rep].metrics, base_reps[rep].metrics, use_transfer_time);
    gains.insert(gains.end(), g.begin(), g.end());
  }
  return gains;
}

/// Prints the canonical policy-comparison table: per task class, the mean
/// metric per policy plus INT-vs-baseline gains.
inline void print_comparison(const std::string& title,
                             const SuiteResults& results,
                             core::PolicyKind int_policy, bool transfer_time,
                             bool csv) {
  exp::TextTable table{title};
  table.set_headers({"class", "int (s)", "nearest (s)", "random (s)",
                     "gain vs nearest", "gain vs random"});

  std::vector<std::vector<std::string>> csv_rows;
  for (const edge::TaskClass cls : edge::kAllTaskClasses) {
    const auto t =
        pooled_class_mean(results.at(int_policy), cls, transfer_time);
    const auto n = pooled_class_mean(results.at(core::PolicyKind::kNearest),
                                     cls, transfer_time);
    const auto r = pooled_class_mean(results.at(core::PolicyKind::kRandom),
                                     cls, transfer_time);
    std::string gain_n = "n/a";
    std::string gain_r = "n/a";
    if (t && n) gain_n = exp::fmt_percent(exp::percent_gain(*n, *t));
    if (t && r) gain_r = exp::fmt_percent(exp::percent_gain(*r, *t));
    table.add_row({edge::short_name(cls), exp::fmt_opt_seconds(t),
                   exp::fmt_opt_seconds(n), exp::fmt_opt_seconds(r), gain_n,
                   gain_r});
    csv_rows.push_back({edge::short_name(cls), exp::fmt_opt_seconds(t),
                        exp::fmt_opt_seconds(n), exp::fmt_opt_seconds(r)});
  }
  table.print(std::cout);

  if (csv) {
    std::cout << "csv:class,int_s,nearest_s,random_s ("
              << (transfer_time ? "transfer" : "completion") << ")\n";
    for (const auto& row : csv_rows) exp::write_csv_row(std::cout, row);
    std::cout << '\n';
  }
}

inline void print_run_summary(const SuiteResults& results) {
  exp::TextTable table{"run summary (summed over repetitions)"};
  table.set_headers({"policy", "tasks done", "sim time (s)", "events",
                     "probes", "reports", "queries", "drops", "bg flows"});
  for (const auto& [policy, reps] : results) {
    exp::ExperimentResult sum;
    for (const exp::ExperimentResult& r : reps) {
      sum.tasks_completed += r.tasks_completed;
      sum.tasks_total += r.tasks_total;
      sum.sim_duration += r.sim_duration;
      sum.events_executed += r.events_executed;
      sum.probes_sent += r.probes_sent;
      sum.probe_reports += r.probe_reports;
      sum.queries_served += r.queries_served;
      sum.switch_queue_drops += r.switch_queue_drops;
      sum.background_flows += r.background_flows;
    }
    table.add_row({core::to_string(policy),
                   sim::cat(sum.tasks_completed, "/", sum.tasks_total),
                   exp::fmt_seconds(sum.sim_duration.to_seconds()),
                   std::to_string(sum.events_executed),
                   std::to_string(sum.probes_sent),
                   std::to_string(sum.probe_reports),
                   std::to_string(sum.queries_served),
                   std::to_string(sum.switch_queue_drops),
                   std::to_string(sum.background_flows)});
  }
  table.print(std::cout);
}

}  // namespace intsched::benchtool
