// Incremental shortest paths across publishes: a long-lived
// ShardedNetworkMap rebuilds only the regions whose map moved and keeps
// every clean region's RankSnapshot — Dijkstra memos included — across
// the publish. Its rankings must stay field-exactly equal to a map built
// from scratch on the same reports (every region rebuilt, every memo
// cold) after arbitrary randomized refresh rounds, and the reuse must
// actually happen (a test that silently rebuilds every region proves
// nothing).
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"

namespace intsched::core {
namespace {

void expect_ranks_identical(const std::vector<ServerRank>& got,
                            const std::vector<ServerRank>& want,
                            const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << what << " rank " << i;
    EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate)
        << what << " rank " << i;
    EXPECT_EQ(got[i].bandwidth_estimate.bps(),
              want[i].bandwidth_estimate.bps())
        << what << " rank " << i;
    EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay)
        << what << " rank " << i;
    EXPECT_EQ(got[i].stale, want[i].stale) << what << " rank " << i;
  }
}

struct MetroCase {
  exp::MetroTelemetryConfig telemetry{};
  std::int32_t rounds = 10;
  /// Links refreshed per round (0: a sixth of the topology).
  std::int64_t refresh_links = 0;
};

/// Full sweep, then `rounds` randomized refresh rounds. After every round
/// the persistent map (region snapshots reused while clean, memos warmed
/// by the previous round's queries) must match a map rebuilt from every
/// report so far.
void run_metro_case(const MetroCase& mc) {
  net::MetroConfig cfg;
  cfg.pods = 3;
  const net::GenTopology topo = net::TopologyGen::ring_of_pods(cfg);
  ASSERT_TRUE(topo.validate().empty());
  exp::MetroTelemetryGen gen{topo, mc.telemetry};
  const RegionAssignment regions = RegionAssignment::from_topology(topo);

  ShardedNetworkMap persistent{regions};
  std::vector<std::pair<std::vector<telemetry::ProbeReport>, sim::SimTime>>
      history;
  const std::vector<core::NodeId> origins = topo.hosts();
  const std::vector<core::NodeId> candidates = topo.edge_servers();

  const auto step = [&](std::vector<telemetry::ProbeReport> batch,
                        sim::SimTime now, const char* what) {
    persistent.ingest_batch(batch, now);
    history.emplace_back(std::move(batch), now);
    ShardedNetworkMap fresh{regions};
    for (const auto& [b, t] : history) fresh.ingest_batch(b, t);
    for (const core::NodeId origin : origins) {
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        expect_ranks_identical(persistent.rank(origin, candidates, metric, now),
                               fresh.rank(origin, candidates, metric, now),
                               what);
      }
    }
  };

  step(gen.full_sweep(), sim::SimTime::seconds(1), "after sweep");
  const std::int64_t refresh =
      mc.refresh_links > 0
          ? mc.refresh_links
          : std::max<std::int64_t>(
                1, static_cast<std::int64_t>(topo.links.size()) / 6);
  for (std::int32_t e = 0; e < mc.rounds; ++e) {
    step(gen.refresh(refresh), sim::SimTime::seconds(2 + e),
         "after refresh");
  }

  // The incremental path carried real weight: some publishes kept some
  // regions' snapshots (and the memos the queries above filled).
  EXPECT_LT(persistent.region_snapshot_builds(),
            persistent.view_publishes() *
                static_cast<std::int64_t>(persistent.region_count().value()));
}

TEST(DeltaDijkstraProperty, MetroRefreshRoundsMatchFullRecompute) {
  // Zero delay wobble: refresh samples replay the converged EWMA values,
  // so delays hold still while the queue/congestion telemetry churns —
  // the rankings must track the fresh queue data (never memoized) on
  // reused and rebuilt regions alike.
  MetroCase mc;
  mc.telemetry.delay_wobble_frac = 0.0;
  mc.refresh_links = 2;
  run_metro_case(mc);
}

TEST(DeltaDijkstraProperty, HeavyChurnStillMatchesFullRecompute) {
  // Aggressive wobble + certain churn: every refreshed link's delay
  // estimate moves, so touched regions must be rebuilt — and untouched
  // ones reused — with results still equal to a full recompute.
  MetroCase mc;
  mc.telemetry.seed = 1234;
  mc.telemetry.delay_wobble_frac = 0.25;
  mc.telemetry.churn_chance = 1.0;
  mc.rounds = 8;
  mc.refresh_links = 1;
  run_metro_case(mc);
}

}  // namespace
}  // namespace intsched::core
