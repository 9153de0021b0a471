// Open-loop load harness for the scheduler-as-a-service path (DESIGN.md
// §13): N producer threads drive wire-encoded rank requests through ONE
// shared serve::ServeFrontend — encode, serve (decode + flat-table
// candidate check + snapshot rank/pick + encode), decode — and time every
// round trip into per-thread benchtool::LatencyHistogram (merged after
// the window).
//
// Phases:
//   ceiling  closed loop: every producer issues back-to-back requests for
//            the window; aggregate completions/sec is the decision-rate
//            ceiling on this machine and the histogram is pure service
//            time.
//   fixed    open loop at --offered total QPS: arrivals are scheduled on
//            the wall clock and latency is measured from the *scheduled*
//            arrival, so queueing delay counts when the offered load
//            exceeds capacity (the classic coordinated-omission fix).
//            This is the phase tools/bench/BENCH_qps.json gates on.
//   ladder   --find-max: descending offered-load trials (fractions of the
//            measured ceiling) until one sustains achieved >= 95% of
//            offered with p99 <= --slo-p99-us; that offered load is the
//            max sustained QPS at the SLO.
//
// --ingest adds one live ingester task republishing telemetry refresh
// batches during the window, so producers race snapshot publishes the
// way a real deployment would. Default is off: the smoke gate wants the
// low-variance number (and a 1-core box would just timeshare).
//
// An open-loop trial that cannot keep up reports its backlog: arrivals
// scheduled inside the window that were never issued before it closed
// (an overloaded producer spends the window draining the warmup's
// arrivals, so "achieved 0" alone would read as an idle trial). Unknown
// flags and malformed values exit 2 with the usage line; --help prints
// it and exits 0.
//
// The shared frontend + tick counter are the bench's point:
// intsched-lint: allow-file(thread-share): producers must share one
//   frontend/map to measure the serving path under concurrent load

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/exp/report.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/serve/frontend.hpp"
#include "intsched/serve/wire.hpp"

namespace {

using namespace intsched;

struct QpsOptions {
  bool full = false;
  std::uint64_t seed = 42;
  std::int32_t pods = 4;
  /// Producer threads. 0 = auto: hardware concurrency - 1, min 1.
  int threads = 0;
  /// Measurement window / warmup, seconds of wall time per trial.
  double seconds = 1.0;
  double warmup = 0.25;
  /// Total offered load (QPS across all producers) for the fixed trial.
  double offered = 150000.0;
  bool find_max = false;
  // intsched-lint: allow(raw-unit): CLI flag, wall-clock microseconds
  double slo_p99_us = 1000.0;
  /// Explicit candidates per request; 0 = rank the whole registry
  /// (the region-pruned pick path).
  std::int32_t candidates = 0;
  std::int32_t max_results = 1;
  bool ingest = false;
  /// Rebuild-executor width for snapshot publishes (0 = auto).
  int jobs = 0;
  std::string json_path;
};

constexpr const char* kUsage =
    "usage: qps_serve [--full] [--find-max] [--ingest]\n"
    "                 [--seed=N] [--pods=N] [--threads=N] [--seconds=S]\n"
    "                 [--warmup=S] [--offered=QPS] [--slo-p99-us=US]\n"
    "                 [--candidates=N] [--max-results=N] [--jobs=N]\n"
    "                 [--json=PATH] [--help]\n";

/// Parses the command line under the benches' strict flag contract
/// (bench_common.hpp): returns only when the bench should run.
QpsOptions parse_qps_options(int argc, char** argv) {
  using benchtool::number;
  using benchtool::number_at_least;
  using benchtool::set_true;
  QpsOptions opts;
  const benchtool::Flag flags[] = {
      {"--full", set_true(opts.full)},
      {"--find-max", set_true(opts.find_max)},
      {"--ingest", set_true(opts.ingest)},
      {"--seed=", number(opts.seed)},
      {"--pods=", number(opts.pods)},
      {"--threads=", number_at_least(opts.threads, 0)},
      {"--seconds=", number(opts.seconds)},
      {"--warmup=", number(opts.warmup)},
      {"--offered=", number(opts.offered)},
      {"--slo-p99-us=", number(opts.slo_p99_us)},
      {"--candidates=", number_at_least(opts.candidates, 0)},
      {"--max-results=", number(opts.max_results)},
      {"--jobs=", number_at_least(opts.jobs, 0)},
      {"--json=",
       [&opts](std::string_view v) {
         opts.json_path = std::string{v};
         return !v.empty();
       }},
  };
  benchtool::parse_flags_or_exit(argc, argv, flags, kUsage);
  if (opts.full && opts.pods == 4) opts.pods = 48;
  if (opts.threads <= 0) {
    opts.threads = std::max(1, exp::resolve_jobs(0) - 1);
  }
  return opts;
}

net::MetroConfig make_metro_config(const QpsOptions& opts) {
  net::MetroConfig cfg;
  cfg.seed = opts.seed;
  cfg.pods = opts.pods;
  if (opts.full) {
    // Acceptance scale: 48 x (6 + 16) = 1056 switches, 768 hosts,
    // 192 edge servers.
    cfg.pod.spines = 6;
    cfg.pod.leaves = 16;
    cfg.pod.hosts_per_leaf = 1;
    cfg.pod.edge_servers_per_pod = 4;
    cfg.ring_chords = 2;
  }
  return cfg;
}

sim::SimTime at_ms(std::int64_t v) {
  return sim::SimTime::at(sim::SimDuration::milliseconds(v));
}

/// Wall clock in ns. The ONLY wall-clock read in this binary; everything
/// (pacing, windows, latencies) is derived from it.
std::int64_t wall_ns() {
  // intsched-lint: allow(wall-clock): load harness measures real time
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t h) {
  h += 0x9E3779B97F4A7C15ULL;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

/// One trial's shared parameters; start_ns is a shared future instant so
/// every producer agrees on the warmup/measurement boundaries.
struct TrialPlan {
  // intsched-lint: allow(raw-unit): wall-clock harness ns, not sim time
  std::int64_t start_ns = 0;
  // intsched-lint: allow(raw-unit): wall-clock harness ns, not sim time
  std::int64_t warmup_ns = 0;
  // intsched-lint: allow(raw-unit): wall-clock harness ns, not sim time
  std::int64_t window_ns = 0;
  /// Per-producer pacing interval; 0 = closed loop.
  // intsched-lint: allow(raw-unit): wall-clock harness ns, not sim time
  std::int64_t interval_ns = 0;
  std::uint64_t seed = 0;
  std::int32_t explicit_candidates = 0;
  std::uint8_t max_results = 1;
};

struct ProducerOut {
  benchtool::LatencyHistogram hist;
  std::int64_t completed = 0;
  std::int64_t errors = 0;
  /// Open loop: arrivals scheduled inside the window, never issued.
  std::int64_t backlogged = 0;
};

struct TrialStats {
  double offered_qps = 0.0;  ///< 0 = closed loop
  double achieved_qps = 0.0;
  std::int64_t completed = 0;
  std::int64_t errors = 0;
  std::int64_t backlogged = 0;
  benchtool::LatencyHistogram hist;
};

/// One producer: encode request -> frontend.serve -> decode response,
/// full round trip timed. Open-loop latency is measured from the
/// scheduled arrival; when the backlog exceeds the pacing interval the
/// spin-wait naturally disappears and queueing delay lands in the
/// histogram instead of being silently omitted.
ProducerOut run_producer(const serve::ServeFrontend& frontend,
                         const std::vector<core::NodeId>& hosts,
                         const std::vector<core::NodeId>& servers,
                         const TrialPlan& plan, std::size_t tid,
                         std::size_t producers,
                         const std::atomic<std::int64_t>& tick_ms) {
  ProducerOut out;
  serve::ServeContext ctx;
  serve::RankRequest req;
  serve::RankResponse resp;
  std::array<std::byte, serve::kMaxFrameSize> req_buf{};
  std::array<std::byte, serve::kMaxFrameSize> resp_buf{};

  req.metric = core::RankingMetric::kDelay;
  req.max_results = plan.max_results;
  const std::size_t explicit_count = std::min<std::size_t>(
      {static_cast<std::size_t>(std::max<std::int32_t>(
           0, plan.explicit_candidates)),
       serve::kMaxRequestCandidates, servers.size()});
  req.candidate_count = static_cast<std::uint16_t>(explicit_count);

  const std::int64_t measure_begin = plan.start_ns + plan.warmup_ns;
  const std::int64_t deadline = measure_begin + plan.window_ns;
  // Stagger paced producers across one interval so aggregate arrivals
  // spread instead of bursting in lockstep.
  std::int64_t next =
      plan.start_ns +
      (plan.interval_ns > 0 && producers > 0
           ? plan.interval_ns * static_cast<std::int64_t>(tid) /
                 static_cast<std::int64_t>(producers)
           : 0);
  const std::uint64_t thread_salt =
      plan.seed ^ (0xA24BAED4963EE407ULL * (tid + 1));

  std::uint64_t q = 0;
  for (;;) {
    std::int64_t t = wall_ns();
    if (t >= deadline) break;
    if (plan.interval_ns > 0) {
      if (next >= deadline) break;  // no more arrivals in this window
      if (t < next) {
        if (next - t > 200000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(next - t - 100000));
        }
        do {
          t = wall_ns();
        } while (t < next);
      }
    }
    const std::int64_t scheduled = plan.interval_ns > 0 ? next : t;

    const std::uint64_t h = splitmix64(thread_salt ^ q);
    req.query_id = q;
    req.origin = hosts[h % hosts.size()];
    if (explicit_count != 0) {
      const std::size_t base = h % servers.size();
      for (std::size_t j = 0; j < explicit_count; ++j) {
        req.candidates[j] = servers[(base + j) % servers.size()];
      }
    }

    const std::size_t req_len =
        serve::encode_rank_request(req, req_buf.data(), req_buf.size());
    std::size_t resp_len = 0;
    bool ok =
        req_len != 0 &&
        frontend.serve(ctx, req_buf.data(), req_len, resp_buf.data(),
                       resp_buf.size(), resp_len, at_ms(tick_ms.load()));
    ok = ok &&
         serve::decode_rank_response(resp_buf.data(), resp_len, resp) ==
             serve::WireError::kOk &&
         resp.status == serve::ServeStatus::kOk && resp.entry_count > 0;
    const std::int64_t done = wall_ns();

    ++q;
    if (plan.interval_ns > 0) next += plan.interval_ns;
    if (scheduled >= measure_begin) {
      out.hist.record(done - scheduled);
      ++out.completed;
      if (!ok) ++out.errors;
    }
  }
  if (plan.interval_ns > 0 && next < deadline) {
    // The window closed on a backlog: the arrivals next, next + interval,
    // ... that fall inside [measure_begin, deadline) were never issued.
    const auto arrivals_before = [&](std::int64_t t) {
      return t <= next ? std::int64_t{0}
                       : (t - next + plan.interval_ns - 1) / plan.interval_ns;
    };
    out.backlogged = arrivals_before(deadline) - arrivals_before(measure_begin);
  }
  return out;
}

/// Live ingest: republish telemetry refresh batches (pre-generated, so
/// the generator itself stays single-threaded) every ~5 ms, advancing
/// the shared sim-time tick each publish.
void run_ingester(core::ShardedNetworkMap& map,
                  const std::vector<std::vector<telemetry::ProbeReport>>& pool,
                  // intsched-lint: allow(raw-unit): wall-clock harness ns
                  std::int64_t deadline_ns,
                  std::atomic<std::int64_t>& tick_ms) {
  std::size_t k = 0;
  while (wall_ns() < deadline_ns) {
    const std::int64_t t = tick_ms.fetch_add(50) + 50;
    map.ingest_batch(pool[k % pool.size()], at_ms(t));
    ++k;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TrialStats run_trial(const serve::ServeFrontend& frontend,
                     core::ShardedNetworkMap& map,
                     const std::vector<core::NodeId>& hosts,
                     const std::vector<core::NodeId>& servers,
                     const std::vector<std::vector<telemetry::ProbeReport>>&
                         ingest_pool,
                     const QpsOptions& opts, double offered_qps) {
  const std::size_t producers = static_cast<std::size_t>(opts.threads);
  const bool ingest = opts.ingest && !ingest_pool.empty();
  const std::size_t tasks = producers + (ingest ? 1 : 0);

  std::atomic<std::int64_t> tick_ms{1000};
  TrialPlan plan;
  plan.warmup_ns = static_cast<std::int64_t>(opts.warmup * 1e9);
  plan.window_ns = static_cast<std::int64_t>(opts.seconds * 1e9);
  plan.interval_ns =
      offered_qps > 0.0
          ? std::llround(1e9 * static_cast<double>(producers) / offered_qps)
          : 0;
  plan.seed = opts.seed;
  plan.explicit_candidates = opts.candidates;
  plan.max_results = static_cast<std::uint8_t>(std::clamp<std::int32_t>(
      opts.max_results, 1,
      static_cast<std::int32_t>(serve::kMaxResponseEntries)));
  // 2 ms lead so every worker observes the same (future) start instant.
  plan.start_ns = wall_ns() + 2000000;
  const std::int64_t deadline =
      plan.start_ns + plan.warmup_ns + plan.window_ns;

  const exp::SweepRunner runner{static_cast<int>(tasks)};
  const std::vector<ProducerOut> outs =
      runner.map<ProducerOut>(tasks, [&](std::size_t i) {
        if (ingest && i == producers) {
          run_ingester(map, ingest_pool, deadline, tick_ms);
          return ProducerOut{};
        }
        return run_producer(frontend, hosts, servers, plan, i, producers,
                            tick_ms);
      });

  TrialStats stats;
  stats.offered_qps = offered_qps;
  for (const ProducerOut& o : outs) {
    stats.hist.merge(o.hist);
    stats.completed += o.completed;
    stats.errors += o.errors;
    stats.backlogged += o.backlogged;
  }
  stats.achieved_qps =
      static_cast<double>(stats.completed) / opts.seconds;
  return stats;
}

bool sustained(const TrialStats& t, const QpsOptions& opts) {
  return t.errors == 0 && t.completed > 0 &&
         t.achieved_qps >= 0.95 * t.offered_qps &&
         t.hist.p99() <= opts.slo_p99_us * 1000.0;
}

std::string fmt_qps(double qps) {
  return std::to_string(static_cast<std::int64_t>(std::llround(qps)));
}

void add_trial_row(exp::TextTable& table, const std::string& name,
                   const TrialStats& t) {
  table.add_row({name,
                 t.offered_qps > 0.0 ? fmt_qps(t.offered_qps) : "closed",
                 fmt_qps(t.achieved_qps),
                 std::to_string(static_cast<std::int64_t>(t.hist.p50())),
                 std::to_string(static_cast<std::int64_t>(t.hist.p99())),
                 std::to_string(static_cast<std::int64_t>(t.hist.p999())),
                 std::to_string(t.errors), std::to_string(t.backlogged)});
}

void write_trial_json(std::ostream& os, const char* key,
                      const TrialStats& t, bool is_sustained) {
  os << "  \"" << key << "\": {\"offered_qps\": " << t.offered_qps
     << ", \"achieved_qps\": " << t.achieved_qps
     << ", \"completed\": " << t.completed << ", \"errors\": " << t.errors
     << ", \"backlogged\": " << t.backlogged
     << ", \"p50_ns\": " << t.hist.p50() << ", \"p99_ns\": " << t.hist.p99()
     << ", \"p999_ns\": " << t.hist.p999()
     << ", \"sustained\": " << (is_sustained ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const QpsOptions opts = parse_qps_options(argc, argv);
  if (opts.pods <= 0 || opts.seconds <= 0.0 || opts.warmup < 0.0 ||
      opts.offered <= 0.0) {
    std::cerr << "qps_serve: --pods/--seconds/--offered must be positive\n";
    std::cerr << kUsage;
    return 2;
  }

  const net::MetroConfig metro_cfg = make_metro_config(opts);
  const net::GenTopology topo = net::TopologyGen::ring_of_pods(metro_cfg);
  const std::vector<std::string> problems = topo.validate();
  if (!problems.empty()) {
    std::cerr << "qps_serve: generated topology is malformed:\n";
    for (const std::string& p : problems) std::cerr << "  " << p << "\n";
    return 2;
  }
  const std::vector<core::NodeId> servers = topo.edge_servers();
  const std::vector<core::NodeId> hosts = topo.hosts();

  std::cout << "qps_serve: " << opts.pods << " pods, " << topo.switch_count()
            << " switches, " << hosts.size() << " hosts, " << servers.size()
            << " edge servers; " << opts.threads << " producer thread(s), "
            << opts.seconds << "s window (+" << opts.warmup
            << "s warmup), seed " << opts.seed
            << (opts.ingest ? ", live ingest" : "") << "\n";

  // Seed the map with one full telemetry sweep so every link has an
  // estimate, then (optionally) pre-generate refresh batches for the
  // live-ingest task.
  exp::MetroTelemetryGen telemetry{topo,
                                   exp::MetroTelemetryConfig{.seed = opts.seed}};
  core::ShardedMapConfig map_cfg;
  map_cfg.rebuild_executor = exp::make_parallel_for(opts.jobs);
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(topo),
                              map_cfg};
  map.ingest_batch(telemetry.full_sweep(), at_ms(1000));

  std::vector<std::vector<telemetry::ProbeReport>> ingest_pool;
  if (opts.ingest) {
    const auto refresh_count = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(topo.links.size()) / 8);
    for (int i = 0; i < 32; ++i) {
      ingest_pool.push_back(telemetry.refresh(refresh_count));
    }
  }

  serve::ServeFrontend frontend{map};
  for (const core::NodeId s : servers) frontend.register_server(s);

  // Phase 1: closed-loop ceiling (pure service rate, no pacing).
  const TrialStats ceiling =
      run_trial(frontend, map, hosts, servers, ingest_pool, opts, 0.0);
  if (ceiling.completed == 0) {
    std::cerr << "qps_serve: ceiling trial completed zero requests\n";
    return 2;
  }

  // Phase 2: fixed open-loop trial at --offered (the gated number).
  const TrialStats fixed =
      run_trial(frontend, map, hosts, servers, ingest_pool, opts,
                opts.offered);
  const bool fixed_ok = sustained(fixed, opts);

  // Phase 3 (--find-max): descend fractions of the ceiling until one
  // offered load sustains at the SLO.
  double max_sustained = 0.0;
  std::vector<std::pair<TrialStats, bool>> ladder;
  if (opts.find_max) {
    for (const double frac : {1.05, 0.95, 0.85, 0.75, 0.65, 0.55, 0.45,
                              0.35, 0.25, 0.15}) {
      const double offered = frac * ceiling.achieved_qps;
      if (offered <= 0.0) break;
      const TrialStats t = run_trial(frontend, map, hosts, servers,
                                     ingest_pool, opts, offered);
      const bool ok = sustained(t, opts);
      ladder.emplace_back(t, ok);
      if (ok) {
        max_sustained = offered;
        break;
      }
    }
  }

  exp::TextTable table{"qps_serve: serving-path load"};
  table.set_headers({"trial", "offered qps", "achieved qps", "p50 (ns)",
                     "p99 (ns)", "p999 (ns)", "errors", "backlogged"});
  add_trial_row(table, "ceiling", ceiling);
  add_trial_row(table, "fixed", fixed);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    add_trial_row(table, "ladder[" + std::to_string(i) + "]",
                  ladder[i].first);
  }
  table.print(std::cout);

  std::cout << "decision-rate ceiling: " << fmt_qps(ceiling.achieved_qps)
            << " qps aggregate over " << opts.threads << " thread(s)\n";
  std::cout << "fixed " << fmt_qps(fixed.offered_qps)
            << " qps offered: p50/p99/p999 = "
            << static_cast<std::int64_t>(fixed.hist.p50()) << "/"
            << static_cast<std::int64_t>(fixed.hist.p99()) << "/"
            << static_cast<std::int64_t>(fixed.hist.p999()) << " ns, "
            << (fixed_ok ? "SUSTAINED" : "NOT sustained") << " at p99 <= "
            << opts.slo_p99_us << " us";
  if (fixed.backlogged > 0) {
    std::cout << "; BACKLOGGED: " << fixed.backlogged
              << " arrivals scheduled in the window were never issued";
  }
  std::cout << "\n";
  if (opts.find_max) {
    std::cout << "max sustained qps at SLO: " << fmt_qps(max_sustained)
              << "\n";
  }

  if (!opts.json_path.empty()) {
    std::ofstream json{opts.json_path};
    if (!json) {
      std::cerr << "qps_serve: cannot write " << opts.json_path << "\n";
      return 2;
    }
    json << "{\n";
    json << "  \"bench\": \"qps_serve\",\n";
    json << "  \"pods\": " << opts.pods << ",\n";
    json << "  \"switches\": " << topo.switch_count() << ",\n";
    json << "  \"hosts\": " << hosts.size() << ",\n";
    json << "  \"servers\": " << servers.size() << ",\n";
    json << "  \"threads\": " << opts.threads << ",\n";
    json << "  \"seconds\": " << opts.seconds << ",\n";
    json << "  \"seed\": " << opts.seed << ",\n";
    json << "  \"ingest\": " << (opts.ingest ? "true" : "false") << ",\n";
    json << "  \"slo_p99_us\": " << opts.slo_p99_us << ",\n";
    json << "  \"ceiling_qps\": " << ceiling.achieved_qps << ",\n";
    write_trial_json(json, "ceiling", ceiling, false);
    json << ",\n";
    write_trial_json(json, "fixed", fixed, fixed_ok);
    json << ",\n";
    json << "  \"max_sustained_qps\": " << max_sustained << "\n";
    json << "}\n";
    std::cout << "wrote " << opts.json_path << "\n";
  }
  return 0;
}
