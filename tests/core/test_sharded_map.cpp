// ShardedNetworkMap / MetroView: the two-level metro read path must agree
// with the flat Algorithm 1 oracle (tests/support) — field-exact in the
// delay-isolated metro regime, border-gateway origins included; forged or
// unprovisioned ids rejected at ingest — pick() == rank()[0] with real
// region pruning, byte-identical results across rebuild-executor widths
// (serial / 2 / 8 threads), and an 8-reader/1-writer torture run
// mirroring the RankSnapshot one (this file rides in concurrency_tests,
// ctest label `perf`, so the tsan preset hammers the same paths).
//
// The torture test's cross-thread state is the maps themselves:
#include "intsched/core/sharded_map.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/scheduler_service.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "support/flat_ranker.hpp"

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

struct MetroFixture {
  net::GenTopology topo;
  exp::MetroTelemetryGen gen;
  std::vector<std::vector<telemetry::ProbeReport>> batches;

  /// `refresh_links` = links refreshed per epoch batch (0: a quarter of
  /// the topology, the dense default).
  explicit MetroFixture(std::int32_t pods, std::int32_t epochs,
                        std::uint64_t seed = 42,
                        std::int64_t refresh_links = 0)
      : topo{net::TopologyGen::ring_of_pods([&] {
          net::MetroConfig cfg;
          cfg.seed = seed;
          cfg.pods = pods;
          return cfg;
        }())},
        gen{topo, exp::MetroTelemetryConfig{.seed = seed}} {
    batches.push_back(gen.full_sweep());
    const std::int64_t refresh =
        refresh_links > 0
            ? refresh_links
            : std::max<std::int64_t>(
                  1, static_cast<std::int64_t>(topo.links.size()) / 4);
    for (std::int32_t e = 1; e < epochs; ++e) {
      batches.push_back(gen.refresh(refresh));
    }
  }

  [[nodiscard]] static sim::SimTime epoch_time(std::size_t e) {
    return sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
  }
};

TEST(ShardedMapTest, MatchesFlatFieldExactEveryEpoch) {
  MetroFixture m{3, 8};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat_map;
  const Ranker flat{flat_map};
  EXPECT_EQ(sharded.region_count(), core::RegionId{3});

  const std::vector<core::NodeId> origins = m.topo.hosts();
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    const sim::SimTime now = MetroFixture::epoch_time(e);
    sharded.ingest_batch(m.batches[e], now);
    for (const auto& r : m.batches[e]) flat_map.ingest(r, now);
    for (const core::NodeId origin : origins) {
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        const auto want = flat.rank(origin, candidates, metric, now);
        const auto got = sharded.rank(origin, candidates, metric, now);
        expect_ranks_identical(got, want, "epoch");

        // pick() is exactly rank()[0] (bandwidth falls back internally).
        const auto best =
            sharded.pick(origin, candidates, metric, now);
        ASSERT_TRUE(best.has_value());
        EXPECT_EQ(best->server, want.front().server);
        EXPECT_EQ(best->delay_estimate, want.front().delay_estimate);
      }
    }
  }
  EXPECT_EQ(sharded.reports_ingested(), flat_map.reports_ingested());
  EXPECT_EQ(sharded.rejected_entries(), 0);
}

TEST(ShardedMapTest, OnlyTouchedRegionsAreRebuilt) {
  // Sparse steady state: one refreshed link per epoch across 8 pods. A
  // probe pair touches at most two regions (plus the summary), so most
  // publishes must reuse most region snapshots by pointer — this saving
  // is the point of region sharding.
  MetroFixture m{8, 10, 42, 1};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  EXPECT_EQ(sharded.view_publishes(),
            static_cast<std::int64_t>(m.batches.size()) + 1);  // +ctor
  // Construction + full sweep rebuild all 8; each of the 9 refreshes may
  // rebuild at most 2. Far below publishes * regions = 88.
  EXPECT_LE(sharded.region_snapshot_builds(), 8 + 8 + 9 * 2);
  EXPECT_LT(sharded.region_snapshot_builds(),
            sharded.view_publishes() *
                static_cast<std::int64_t>(sharded.region_count().value()));
}

TEST(ShardedMapTest, PickPrunesRegionsAndAgreesWithRank) {
  MetroFixture m{5, 4};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();

  PickStats total;
  for (const core::NodeId origin : m.topo.hosts()) {
    PickStats stats;
    const auto best = sharded.pick(origin, candidates,
                                   RankingMetric::kDelay, now, &stats);
    const auto ranked =
        sharded.rank(origin, candidates, RankingMetric::kDelay, now);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->server, ranked.front().server);
    EXPECT_EQ(best->delay_estimate, ranked.front().delay_estimate);
    total.regions_considered += stats.regions_considered;
    total.regions_pruned += stats.regions_pruned;
    total.candidates_scored += stats.candidates_scored;
  }
  // Delay isolation makes remote regions prunable: most candidates are
  // never scored.
  EXPECT_GT(total.regions_pruned, 0);
  EXPECT_LT(total.candidates_scored,
            static_cast<std::int64_t>(m.topo.hosts().size() *
                                      candidates.size()));
}

TEST(ShardedMapTest, ByteIdenticalAcrossRebuildExecutorWidths) {
  MetroFixture m{4, 6};
  const RegionAssignment regions = RegionAssignment::from_topology(m.topo);

  // Serial (null executor) and pools of width 1, 2, 8.
  std::vector<std::unique_ptr<ShardedNetworkMap>> maps;
  maps.push_back(std::make_unique<ShardedNetworkMap>(regions));
  for (const int jobs : {1, 2, 8}) {
    ShardedMapConfig cfg;
    cfg.rebuild_executor = exp::make_parallel_for(jobs);
    maps.push_back(std::make_unique<ShardedNetworkMap>(regions, cfg));
  }

  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    for (auto& map : maps) {
      map->ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    }
  }

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  for (const core::NodeId origin : m.topo.hosts()) {
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      const auto want = maps[0]->rank(origin, candidates, metric, now);
      for (std::size_t i = 1; i < maps.size(); ++i) {
        expect_ranks_identical(maps[i]->rank(origin, candidates, metric, now),
                               want, "executor width");
      }
    }
  }
  for (const auto& map : maps) {
    EXPECT_EQ(map->region_snapshot_builds(),
              maps[0]->region_snapshot_builds());
    EXPECT_EQ(map->view()->epoch(), maps[0]->view()->epoch());
  }
}

TEST(ShardedMapTest, SetKFactorRepublishesEverything) {
  MetroFixture m{2, 2};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  sharded.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));
  const auto before = sharded.view();

  sharded.set_k_factor(sim::SimDuration::milliseconds(40));
  const auto after = sharded.view();
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->config().k_factor, sim::SimDuration::milliseconds(40));

  // The new k flows into delay estimates (flat map as the oracle).
  NetworkMap flat_map;
  for (const auto& r : m.batches[0]) {
    flat_map.ingest(r, MetroFixture::epoch_time(0));
  }
  const Ranker flat{flat_map, RankerConfig{.k_factor =
                                               sim::SimDuration::milliseconds(40)}};
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  const sim::SimTime now = MetroFixture::epoch_time(1);
  expect_ranks_identical(
      sharded.rank(m.topo.hosts()[0], candidates, RankingMetric::kDelay, now),
      flat.rank(m.topo.hosts()[0], candidates, RankingMetric::kDelay, now),
      "post set_k_factor");
}

// Torture: 8 readers hammering the lock-free two-level path (rank + pick)
// against 1 writer streaming pre-generated refresh batches, mirroring
// RankSnapshotTest.TortureEightReadersOneWriter. Assertions run after the
// join; while running, the test's job is giving TSan real traffic over
// the MetroView publish/load edge and the per-origin call_once contexts.
TEST(ShardedMapTest, TortureEightReadersOneWriter) {
  constexpr int kReaders = 8;
  constexpr int kOpsPerReader = 400;  // each op = one rank + one pick

  MetroFixture m{3, 40};
  ShardedNetworkMap shared{RegionAssignment::from_topology(m.topo)};
  shared.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));

  const std::vector<core::NodeId> origins = m.topo.hosts();
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();

  std::vector<std::function<void()>> tasks;
  tasks.push_back([&shared, &m] {
    for (std::size_t e = 1; e < m.batches.size(); ++e) {
      shared.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    }
  });
  std::vector<std::int64_t> bad(kReaders, 0);
  for (int t = 0; t < kReaders; ++t) {
    tasks.push_back([&shared, &origins, &candidates, &bad, t] {
      for (int i = 0; i < kOpsPerReader; ++i) {
        const core::NodeId origin =
            origins[static_cast<std::size_t>(t * 31 + i) % origins.size()];
        const auto metric = (i % 2 == 0) ? RankingMetric::kDelay
                                         : RankingMetric::kBandwidth;
        const sim::SimTime now = sim::SimTime::seconds(1 + i % 40);
        const auto ranked = shared.rank(origin, candidates, metric, now);
        // pick-vs-rank consistency must hold on ONE view: the wrapper
        // calls above may straddle a publish.
        const auto view = shared.view();
        const auto vranked = view->rank(origin, candidates, metric, now);
        const auto vbest = view->pick(origin, candidates, metric, now);
        if (ranked.size() != candidates.size() ||
            vranked.size() != candidates.size() || !vbest.has_value() ||
            vbest->server != vranked.front().server) {
          ++bad[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  const exp::SweepRunner runner{1 + kReaders};
  runner.run(std::move(tasks));

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0) << "reader " << t;
  }
  std::int64_t expected_reports = 0;
  for (const auto& b : m.batches) {
    expected_reports += static_cast<std::int64_t>(b.size());
  }
  EXPECT_EQ(shared.reports_ingested(), expected_reports);
  // Only the wrapper rank() bumps the counter (view-level calls don't).
  EXPECT_EQ(shared.queries_served(),
            static_cast<std::int64_t>(kReaders) * kOpsPerReader);
  EXPECT_EQ(shared.view()->epoch(), core::Epoch{expected_reports});

  // Quiesced state replays field-identically against the flat oracle.
  NetworkMap flat_map;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    for (const auto& r : m.batches[e]) {
      flat_map.ingest(r, MetroFixture::epoch_time(e));
    }
  }
  const Ranker flat{flat_map};
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  for (const core::NodeId origin : {origins[0], origins[5]}) {
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      expect_ranks_identical(shared.rank(origin, candidates, metric, now),
                             flat.rank(origin, candidates, metric, now),
                             "post torture");
    }
  }
}

// Border-gateway origins: a query from a node that is itself one of its
// region's borders must rank, pick and match the flat oracle like any
// other origin (its summary Dijkstra starts at a real summary node).
TEST(ShardedMapTest, BorderOriginMatchesFlatOracle) {
  MetroFixture m{4, 1, 7};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat_map;
  const sim::SimTime now = MetroFixture::epoch_time(0);
  sharded.ingest_batch(m.batches[0], now);
  for (const auto& r : m.batches[0]) flat_map.ingest(r, now);
  const Ranker flat{flat_map};

  const std::vector<core::NodeId> servers = m.topo.edge_servers();
  const auto view = sharded.view();
  for (std::int32_t r = 0; r < view->region_count().value(); ++r) {
    const std::vector<core::NodeId>& borders =
        view->borders_of(core::RegionId{r});
    ASSERT_FALSE(borders.empty()) << "region " << r;
    for (const core::NodeId origin : {borders.front(), borders.back()}) {
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        const auto want = flat.rank(origin, servers, metric, now);
        expect_ranks_identical(sharded.rank(origin, servers, metric, now),
                               want, "border origin");
        const auto best = sharded.pick(origin, servers, metric, now);
        ASSERT_TRUE(best.has_value());
        EXPECT_EQ(best->server, want.front().server);
        EXPECT_EQ(best->delay_estimate, want.front().delay_estimate);
      }
    }
  }
}

/// Every region's border list plus the summary's link count: what an
/// unprovisioned id must not grow.
struct BorderState {
  std::vector<std::vector<core::NodeId>> borders;
  std::int64_t summary_links = 0;

  explicit BorderState(const MetroView& view)
      : summary_links{view.summary_map().known_link_count()} {
    for (std::int32_t r = 0; r < view.region_count().value(); ++r) {
      borders.push_back(view.borders_of(core::RegionId{r}));
    }
  }
  bool operator==(const BorderState&) const = default;
};

// A probe report carrying a forged INT device id (beyond every region's
// provisioning table) is rejected at the ingest boundary: the entry is
// counted and skipped — the chain continues from the last accepted entry,
// as the flat map does for an invalid id — so no summary link or border
// appears, and decisions for the report's hosts keep agreeing with the
// flat oracle fed the same report with the forged id invalidated.
TEST(ShardedMapTest, ForgedDeviceIdKeepsDecisionsWorking) {
  MetroFixture m{4, 1, 7};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat_map;
  const sim::SimTime now = MetroFixture::epoch_time(0);
  sharded.ingest_batch(m.batches[0], now);
  for (const auto& r : m.batches[0]) flat_map.ingest(r, now);
  const BorderState before{*sharded.view()};

  telemetry::ProbeReport forged = m.batches[0].front();
  ASSERT_FALSE(forged.entries.empty());
  forged.entries.back().device = core::NodeId{5000000};
  sharded.ingest(forged, now);
  telemetry::ProbeReport oracle_report = forged;
  oracle_report.entries.back().device = core::kInvalidNode;
  flat_map.ingest(oracle_report, now);
  EXPECT_GT(sharded.rejected_entries(), 0);
  EXPECT_EQ(sharded.rejected_reports(), 0);
  EXPECT_EQ(sharded.reports_ingested(),
            static_cast<std::int64_t>(m.batches[0].size()) + 1);
  EXPECT_TRUE(BorderState{*sharded.view()} == before)
      << "the forged entry grew the summary graph";

  const Ranker flat{flat_map};
  const std::vector<core::NodeId> servers = m.topo.edge_servers();
  for (const core::NodeId origin : {forged.dst, forged.src}) {
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      const auto want = flat.rank(origin, servers, metric, now);
      expect_ranks_identical(sharded.rank(origin, servers, metric, now), want,
                             "forged device id");
      const auto best = sharded.pick(origin, servers, metric, now);
      ASSERT_TRUE(best.has_value());
      expect_ranks_identical({*best}, {want.front()}, "forged device pick");
    }
  }
}

// A report whose src or dst is unprovisioned is dropped whole before any
// shard is touched: counted, no report ingested, no link learned, and the
// next view ranks exactly as the one before it.
TEST(ShardedMapTest, UnprovisionedEndpointDropsTheReport) {
  MetroFixture m{2, 1, 7};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  const sim::SimTime now = MetroFixture::epoch_time(0);
  sharded.ingest_batch(m.batches[0], now);
  const std::shared_ptr<const MetroView> before = sharded.view();
  const BorderState borders_before{*before};
  const std::int64_t reports_before = sharded.reports_ingested();
  const std::vector<core::NodeId> servers = m.topo.edge_servers();
  const core::NodeId origin = m.topo.hosts().front();

  const core::NodeId unprovisioned{
      static_cast<std::int32_t>(m.topo.nodes.size())};
  telemetry::ProbeReport bad_src = m.batches[0].front();
  bad_src.src = unprovisioned;
  telemetry::ProbeReport bad_dst = m.batches[0].back();
  bad_dst.dst = core::NodeId{5000000};
  for (telemetry::ProbeReport* bad : {&bad_src, &bad_dst}) {
    // Loud telemetry: every entry would move a queue window if applied.
    for (net::IntStackEntry& e : bad->entries) {
      e.max_queue_pkts = 40;
      e.device_max_queue_pkts = 40;
    }
  }
  sharded.ingest(bad_src, now);
  sharded.ingest(bad_dst, now);

  EXPECT_EQ(sharded.rejected_reports(), 2);
  EXPECT_EQ(sharded.rejected_entries(), 0);
  EXPECT_EQ(sharded.reports_ingested(), reports_before);
  const std::shared_ptr<const MetroView> after = sharded.view();
  EXPECT_EQ(after->epoch(), before->epoch());
  EXPECT_TRUE(BorderState{*after} == borders_before);
  for (std::int32_t r = 0; r < after->region_count().value(); ++r) {
    EXPECT_EQ(&after->region_snapshot(core::RegionId{r}),
              &before->region_snapshot(core::RegionId{r}))
        << "region " << r << " was rebuilt for a dropped report";
  }
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(after->rank(origin, servers, metric, now),
                           before->rank(origin, servers, metric, now),
                           "after dropped reports");
  }
}

}  // namespace
}  // namespace intsched::core
