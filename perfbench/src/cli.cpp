#include "cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

constexpr unsigned kW = static_cast<unsigned>(Workload::kServeWarmMetro);
constexpr unsigned kS = static_cast<unsigned>(Workload::kServeSmallMt);
constexpr unsigned kC = static_cast<unsigned>(Workload::kChurnMetro);
constexpr unsigned kF = static_cast<unsigned>(Workload::kPaperFig5);
constexpr unsigned kAll = kW | kS | kC | kF;

struct MetricDef {
  std::string name;
  std::string unit;
  unsigned owners;  ///< workloads that must set it
};

const std::vector<MetricDef>& end_to_end_catalogue() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", kAll},
      {"peak_rss_mb", "MB", kAll},
      {"ops_per_s", "1/s", kAll},
      {"op_p50_us", "us", kAll},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_catalogue() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"serve.serve_ns", "ns", kW | kS | kC},
        {"serve.decode_request_ns", "ns", kW | kS | kC},
        {"serve.registry_probe_ns", "ns", kW | kS | kC},
        {"serve.encode_response_ns", "ns", kW | kS | kC},
        {"serve.malformed", "count", kW | kS | kC},
        {"serve.unknown_origin", "count", kW | kS | kC},
        {"serve.no_candidates", "count", kW | kS | kC},
        {"serve.decision_p99_us", "us", kW | kS | kC},
        {"serve.decisions_per_s_1thread", "1/s", kW | kS | kC},
        {"serve.decision_p50_us_mt", "us", kS},
        {"serve.decision_p99_us_mt", "us", kS},
        {"core.view_acquire_ns", "ns", kW | kS | kC},
        {"core.view_acquire_ns_mt", "ns", kS},
        {"core.pick_ns", "ns", kW | kC},
        {"core.topk_ns", "ns", kS},
        {"core.regions_considered", "count", kW | kC},
        {"core.regions_pruned", "count", kW | kC},
        {"core.candidates_scored", "count", kW | kC},
        {"core.prune_ratio", "ratio", kW | kC},
        {"core.memo_fill_ms", "ms", kW | kS | kC},
        {"core.memo_hit_ratio", "ratio", kW | kS | kC},
        {"core.ingest_batch_ms", "ms", kW | kS | kC},
        {"core.region_builds_per_publish", "count", kW | kS | kC},
        {"core.ingest_reports_per_s", "1/s", kW | kS | kC},
        {"core.rejected_entries", "count", kW | kS | kC},
        {"core.stage_sum_ratio", "ratio", kW | kS | kC},
        {"client.encode_request_ns", "ns", kW | kS | kC},
        {"client.decode_response_ns", "ns", kW | kS | kC},
        {"trace.overhead_ratio", "ratio", kW | kS | kC},
        {"exp.sim_wall_s", "s", kF},
        {"sim.events_per_s", "1/s", kF},
        {"edge.int_delay_gain_vs_nearest", "ratio", kF},
    };
    for (const char* arm : {"int-delay", "nearest", "random"}) {
      const std::string a = arm;
      d.push_back({"exp.arm_wall_s." + a, "s", kF});
      d.push_back({"sim.ns_per_event." + a, "ns", kF});
      d.push_back({"sim.events." + a, "count", kF});
      d.push_back({"telemetry.probe_reports." + a, "count", kF});
      d.push_back({"core.queries." + a, "count", kF});
      d.push_back({"p4.queue_drops." + a, "count", kF});
      d.push_back({"edge.tasks_completed." + a, "count", kF});
      d.push_back({"edge.mean_completion_s." + a, "s", kF});
    }
    return d;
  }();
  return defs;
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || ec != std::errc{} || ptr != end) {
    throw UsageError(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return out;
}

double parse_positive(const std::string& flag, const std::string& v) {
  std::istringstream in{v};
  double out = 0.0;
  char trailing = 0;
  if (!(in >> out) || (in >> trailing) || !std::isfinite(out) || out <= 0.0) {
    throw UsageError(flag + " needs a positive number, got '" + v + "'");
  }
  return out;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kServeWarmMetro:
      return "serve_warm_metro";
    case Workload::kServeSmallMt:
      return "serve_small_mt";
    case Workload::kChurnMetro:
      return "churn_metro";
    case Workload::kPaperFig5:
      return "paper_fig5";
  }
  return "?";
}

Options parse_options(const std::vector<std::string>& args) {
  Options opts;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    bool inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      inline_value = true;
    }
    if (flag == "--smoke") {
      if (inline_value) throw UsageError("--smoke takes no value");
      opts.smoke = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      throw UsageError("unknown argument '" + args[i] + "'");
    }
    if (!inline_value) {
      if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
      value = args[++i];
    }
    if (flag == "--workload") {
      bool known = false;
      for (const Workload w :
           {Workload::kServeWarmMetro, Workload::kServeSmallMt,
            Workload::kChurnMetro, Workload::kPaperFig5}) {
        if (value == to_string(w)) {
          opts.workload = w;
          known = true;
        }
      }
      if (!known) throw UsageError("unknown workload '" + value + "'");
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = parse_positive(flag, value);
      have_seconds = true;
    } else {
      if (value != "0" && value != "1") {
        throw UsageError("--trace needs 0 or 1, got '" + value + "'");
      }
      opts.trace = value == "1";
      have_trace = true;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw UsageError(
        "--workload, --seed, --seconds and --trace are all required");
  }
  return opts;
}

Report::Report(Workload workload, bool trace)
    : workload_{workload}, trace_{trace} {}

void Report::set(const std::string& name, double value) {
  const auto& defs = trace_ ? per_layer_catalogue() : end_to_end_catalogue();
  for (const MetricDef& d : defs) {
    if (d.name == name) {
      if (!std::isfinite(value)) {
        throw std::logic_error("metric " + name + " is not finite");
      }
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("metric " + name + " is not in the " +
                         (trace_ ? "per-layer" : "end-to-end") +
                         " catalogue");
}

void Report::op(bool ok, const char* what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) {
    std::cerr << "perfbench: failed operation: " << what << "\n";
  }
}

void Report::check(bool ok, const char* what) {
  if (ok) return;
  if (++wrong_ <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Report::add(std::int64_t attempted, std::int64_t failed,
                 std::int64_t wrong, const char* what) {
  attempted_ += attempted;
  failed_ += failed;
  wrong_ += wrong;
  if (failed != 0 || wrong != 0) {
    std::cerr << "perfbench: " << what << ": " << failed << " of "
              << attempted << " failed, " << wrong << " failed checks\n";
  }
}

void Report::print() const {
  const auto& defs = trace_ ? per_layer_catalogue() : end_to_end_catalogue();
  const unsigned me = static_cast<unsigned>(workload_);
  std::ostringstream out;
  out.precision(15);
  out << "{\"correct\": " << (wrong_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end() && (d.owners & me) != 0) {
      throw std::logic_error("workload " + std::string{to_string(workload_)} +
                             " did not measure " + d.name);
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
