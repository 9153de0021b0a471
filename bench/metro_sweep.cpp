// Metro-scale two-level scheduling sweep (DESIGN.md §11): generates a
// ring-of-pods metro with TopologyGen, synthesizes INT telemetry epochs
// with exp::MetroTelemetryGen, and runs the same million-task decision
// stream through two arms —
//
//   flat     a one-region core::ShardedNetworkMap: every decision is a
//            metro-wide rank over one flat region.
//   sharded  core::ShardedNetworkMap: region shards + summary graph,
//            decisions via MetroView::pick (two-level with region
//            pruning), snapshot rebuilds parallelized over regions.
//
// Both arms consume byte-identical inputs (the report batches are
// generated once; the task stream is re-derived from the same seed), so
// the chosen-server fingerprints and the agreement fraction measure the
// two-level path's fidelity while the wall clocks measure its win.
//
// Default is a 2-pod smoke configuration (CI's metro-smoke step); --full
// is the acceptance-scale run: 48 pods x (6 spines + 16 leaves) = 1056
// switches, 768 hosts, 192 edge servers, one million tasks.
// Unknown flags and malformed values exit 2 with the usage line; --help
// prints it and exits 0.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/edge/workload.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/exp/report.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/sim/hash.hpp"
#include "intsched/sim/stats.hpp"

namespace {

using intsched::core::PickStats;
using intsched::core::RankingMetric;
using intsched::core::RegionAssignment;
using intsched::core::ServerRank;
using intsched::core::ShardedMapConfig;
using intsched::core::ShardedNetworkMap;

struct MetroOptions {
  bool full = false;
  bool csv = false;
  std::uint64_t seed = 42;
  std::int32_t pods = 2;
  std::int64_t tasks = 20000;
  std::int32_t epochs = 50;
  int jobs = 0;
  std::string json_path;
};

MetroOptions parse_metro_options(int argc, char** argv) {
  using intsched::benchtool::Flag;
  using intsched::benchtool::number;
  using intsched::benchtool::number_at_least;
  using intsched::benchtool::set_true;
  MetroOptions opts;
  bool tasks_set = false;
  bool pods_set = false;
  bool epochs_set = false;
  const auto noting = [](auto set, bool& seen) {
    return [set, &seen](std::string_view v) {
      seen = true;
      return set(v);
    };
  };
  const Flag flags[] = {
      {"--full", set_true(opts.full)},
      {"--csv", set_true(opts.csv)},
      {"--seed=", number(opts.seed)},
      {"--pods=", noting(number_at_least(opts.pods, 1), pods_set)},
      {"--tasks=",
       noting(number_at_least(opts.tasks, std::int64_t{1}), tasks_set)},
      {"--epochs=", noting(number_at_least(opts.epochs, 1), epochs_set)},
      {"--jobs=", number_at_least(opts.jobs, 0)},
      {"--json=",
       [&opts](std::string_view v) {
         opts.json_path = std::string{v};
         return !v.empty();
       }},
  };
  intsched::benchtool::parse_flags_or_exit(
      argc, argv, flags,
      "usage: metro_sweep [--full] [--csv] [--seed=N] [--pods=N] "
      "[--tasks=N]\n"
      "                   [--epochs=N] [--jobs=N] [--json=PATH] [--help]\n");
  if (opts.full) {
    if (!pods_set) opts.pods = 48;
    if (!tasks_set) opts.tasks = 1000000;
    if (!epochs_set) opts.epochs = 200;
  }
  return opts;
}

intsched::net::MetroConfig make_metro_config(const MetroOptions& opts) {
  intsched::net::MetroConfig cfg;
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

/// One arm's measured outcome over the shared decision stream.
struct ArmResult {
  std::string name;
  double wall_seconds = 0.0;
  intsched::sim::Ecdf rank_ns;
  std::vector<intsched::core::NodeId> chosen;
  std::uint64_t fingerprint = 0;
};

/// Drives `decide` through every epoch: ingest the epoch's report batch,
/// then time each task decision individually. The report batches and the
/// task stream are identical across arms; only `decide` differs.
template <typename IngestFn, typename DecideFn>
ArmResult run_arm(
    std::string name, const MetroOptions& opts,
    const std::vector<std::vector<intsched::telemetry::ProbeReport>>& batches,
    const std::vector<intsched::core::NodeId>& submitters, IngestFn ingest,
    DecideFn decide) {
  ArmResult out;
  out.name = std::move(name);
  out.chosen.reserve(static_cast<std::size_t>(opts.tasks));
  intsched::edge::MetroTaskStream stream{opts.seed, submitters};

  const std::int64_t per_epoch =
      std::max<std::int64_t>(1, opts.tasks / opts.epochs);
  // intsched-lint: allow(wall-clock): bench harness measuring real time
  const auto arm_begin = std::chrono::steady_clock::now();
  std::int64_t issued = 0;
  for (std::int32_t e = 0; e < opts.epochs && issued < opts.tasks; ++e) {
    const auto now =
        intsched::sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
    ingest(batches[static_cast<std::size_t>(e)], now);
    const std::int64_t quota = e + 1 == opts.epochs
                                   ? opts.tasks - issued
                                   : std::min(per_epoch, opts.tasks - issued);
    for (std::int64_t t = 0; t < quota; ++t, ++issued) {
      const auto task = stream.next();
      // intsched-lint: allow(wall-clock): measuring real decision latency
      const auto begin = std::chrono::steady_clock::now();
      const intsched::core::NodeId server = decide(task.submitter, now);
      // intsched-lint: allow(wall-clock): measuring real decision latency
      const auto end = std::chrono::steady_clock::now();
      out.rank_ns.add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
              .count()));
      out.chosen.push_back(server);
    }
  }
  // intsched-lint: allow(wall-clock): bench harness measuring real time
  const auto arm_end = std::chrono::steady_clock::now();
  out.wall_seconds =
      std::chrono::duration<double>(arm_end - arm_begin).count();

  intsched::sim::Fnv1a64 hash;
  for (const intsched::core::NodeId n : out.chosen) {
    hash.add(static_cast<std::uint64_t>(n.value()));
  }
  out.fingerprint = hash.digest();
  return out;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    s.push_back(digits[(v >> shift) & 0xF]);
  }
  return s;
}

void write_json(std::ostream& os, const MetroOptions& opts,
                const intsched::net::GenTopology& topo,
                const std::vector<ArmResult>& arms, double agreement,
                double speedup) {
  os << "{\n";
  os << "  \"bench\": \"metro_sweep\",\n";
  os << "  \"pods\": " << opts.pods << ",\n";
  os << "  \"switches\": " << topo.switch_count() << ",\n";
  os << "  \"hosts\": " << topo.hosts().size() << ",\n";
  os << "  \"servers\": " << topo.edge_servers().size() << ",\n";
  os << "  \"regions\": " << topo.regions << ",\n";
  os << "  \"links\": " << topo.links.size() << ",\n";
  os << "  \"tasks\": " << opts.tasks << ",\n";
  os << "  \"epochs\": " << opts.epochs << ",\n";
  os << "  \"seed\": " << opts.seed << ",\n";
  os << "  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    os << "    {\"arm\": \"" << a.name << "\", \"wall_seconds\": "
       << a.wall_seconds << ", \"rank_ns_p50\": " << a.rank_ns.quantile(0.5)
       << ", \"rank_ns_p99\": " << a.rank_ns.quantile(0.99)
       << ", \"fingerprint\": \"" << hex64(a.fingerprint) << "\"}"
       << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"agreement\": " << agreement << ",\n";
  os << "  \"speedup\": " << speedup << "\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const MetroOptions opts = parse_metro_options(argc, argv);
  if (opts.epochs <= 0 || opts.tasks <= 0 || opts.pods <= 0) {
    std::cerr << "metro_sweep: --pods/--tasks/--epochs must be positive\n";
    return 2;
  }

  const intsched::net::MetroConfig metro_cfg = make_metro_config(opts);
  const intsched::net::GenTopology topo =
      intsched::net::TopologyGen::ring_of_pods(metro_cfg);
  const std::vector<std::string> problems = topo.validate();
  if (!problems.empty()) {
    std::cerr << "metro_sweep: generated topology is malformed:\n";
    for (const std::string& p : problems) std::cerr << "  " << p << "\n";
    return 2;
  }
  const std::vector<intsched::core::NodeId> servers = topo.edge_servers();
  const std::vector<intsched::core::NodeId> hosts = topo.hosts();

  std::cout << "metro_sweep: " << opts.pods << " pods, "
            << topo.switch_count() << " switches, " << hosts.size()
            << " hosts, " << servers.size() << " edge servers, "
            << topo.links.size() << " links; " << opts.tasks << " tasks / "
            << opts.epochs << " epochs, seed " << opts.seed << "\n";

  // Generate every epoch's report batch ONCE; both arms ingest the same
  // bytes. Epoch 0 is a full sweep (the map learns the topology); later
  // epochs refresh an eighth of the links with congestion churn.
  intsched::exp::MetroTelemetryGen telemetry{
      topo, intsched::exp::MetroTelemetryConfig{.seed = opts.seed}};
  std::vector<std::vector<intsched::telemetry::ProbeReport>> batches;
  batches.reserve(static_cast<std::size_t>(opts.epochs));
  batches.push_back(telemetry.full_sweep());
  const auto refresh_count = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(topo.links.size()) / 8);
  for (std::int32_t e = 1; e < opts.epochs; ++e) {
    batches.push_back(telemetry.refresh(refresh_count));
  }

  std::vector<ArmResult> arms;

  {
    ShardedNetworkMap flat{RegionAssignment::single_region(
        static_cast<std::int32_t>(topo.nodes.size()))};
    intsched::core::MetroView::RankScratch scratch;
    std::vector<ServerRank> ranked;
    arms.push_back(run_arm(
        "flat", opts, batches, hosts,
        [&](const std::vector<intsched::telemetry::ProbeReport>& b,
            intsched::sim::SimTime now) { flat.ingest_batch(b, now); },
        [&](intsched::core::NodeId origin, intsched::sim::SimTime now) {
          flat.view()->rank_into(origin, servers.data(), servers.size(),
                                 RankingMetric::kDelay, now, scratch, ranked);
          return ranked.empty() ? intsched::core::kInvalidNode
                                : ranked.front().server;
        }));
  }

  PickStats pick_stats;
  std::int64_t sharded_builds = 0;
  {
    ShardedMapConfig cfg;
    cfg.rebuild_executor = intsched::exp::make_parallel_for(opts.jobs);
    ShardedNetworkMap sharded{RegionAssignment::from_topology(topo), cfg};
    arms.push_back(run_arm(
        "sharded", opts, batches, hosts,
        [&](const std::vector<intsched::telemetry::ProbeReport>& b,
            intsched::sim::SimTime now) { sharded.ingest_batch(b, now); },
        [&](intsched::core::NodeId origin, intsched::sim::SimTime now) {
          PickStats one;
          const std::optional<ServerRank> best = sharded.pick(
              origin, servers, RankingMetric::kDelay, now, &one);
          pick_stats.regions_considered += one.regions_considered;
          pick_stats.regions_pruned += one.regions_pruned;
          pick_stats.candidates_scored += one.candidates_scored;
          return best ? best->server : intsched::core::kInvalidNode;
        }));
    sharded_builds = sharded.region_snapshot_builds();
  }

  const ArmResult& flat = arms[0];
  const ArmResult& sharded = arms[1];
  std::int64_t agree = 0;
  const std::size_t n = std::min(flat.chosen.size(), sharded.chosen.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (flat.chosen[i] == sharded.chosen[i]) ++agree;
  }
  const double agreement =
      n == 0 ? 0.0 : static_cast<double>(agree) / static_cast<double>(n);
  const double speedup = sharded.wall_seconds > 0.0
                             ? flat.wall_seconds / sharded.wall_seconds
                             : 0.0;

  intsched::exp::TextTable table{"metro sweep: flat vs two-level"};
  table.set_headers({"arm", "wall (s)", "rank p50 (ns)", "rank p99 (ns)",
                     "fingerprint"});
  for (const ArmResult& a : arms) {
    table.add_row({a.name, intsched::exp::fmt_seconds(a.wall_seconds),
                   std::to_string(static_cast<std::int64_t>(
                       a.rank_ns.quantile(0.5))),
                   std::to_string(static_cast<std::int64_t>(
                       a.rank_ns.quantile(0.99))),
                   hex64(a.fingerprint)});
  }
  table.print(std::cout);

  std::cout << "agreement: " << agree << "/" << n << " ("
            << agreement * 100.0 << "%)\n";
  std::cout << "speedup (flat wall / sharded wall): " << speedup << "x\n";
  std::cout << "pick pruning: " << pick_stats.regions_pruned << " of "
            << pick_stats.regions_pruned + pick_stats.regions_considered
            << " region visits pruned, " << pick_stats.candidates_scored
            << " candidates scored\n";
  std::cout << "sharded region snapshot builds: " << sharded_builds << "\n";

  if (opts.csv) {
    std::cout << "csv:arm,wall_seconds,rank_ns_p50,rank_ns_p99,fingerprint\n";
    for (const ArmResult& a : arms) {
      intsched::exp::write_csv_row(
          std::cout,
          {a.name, std::to_string(a.wall_seconds),
           std::to_string(a.rank_ns.quantile(0.5)),
           std::to_string(a.rank_ns.quantile(0.99)), hex64(a.fingerprint)});
    }
  }

  if (!opts.json_path.empty()) {
    std::ofstream json{opts.json_path};
    if (!json) {
      std::cerr << "metro_sweep: cannot write " << opts.json_path << "\n";
      return 2;
    }
    write_json(json, opts, topo, arms, agreement, speedup);
    std::cout << "wrote " << opts.json_path << "\n";
  }
  return 0;
}
