// The flat scheduler's map: a one-region ShardedNetworkMap (what
// SchedulerService owns) held to the flat Algorithm 1 oracle in
// tests/support. Every provisioned id lands in region 0, so the published
// view must rank exactly like the oracle over a plain NetworkMap fed the
// same reports. The ConcurrentMapModes suite runs every behaviour in both
// publication modes: `snapshot` publishes a view per ingest (ingest /
// ingest_batch), `lazy` applies reports without publishing and
// publishes before a read when reports arrived (SchedulerService's
// shape). The concurrent test drives real parallelism through
// exp::SweepRunner (the sanctioned pool) and asserts only
// interleaving-insensitive facts — totals after the join, and the final
// converged ranking — so it passes under any schedule while giving
// ThreadSanitizer (the `tsan` preset) real cross-thread traffic over the
// writer lock, concurrent publishes and the lock-free view.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "support/flat_ranker.hpp"

namespace intsched::core {
namespace {

/// Provisioned ids [0, kNodes): hosts 0/1, switches 10/11 and the
/// never-probed candidate 99.
constexpr std::int32_t kNodes = 100;

sim::SimDuration ms(int v) { return sim::SimDuration::milliseconds(v); }
sim::SimTime at_ms(int v) { return sim::SimTime::at(ms(v)); }

net::IntStackEntry entry(core::NodeId device, std::int32_t in_port,
                         std::int32_t out_port, std::int64_t queue,
                         sim::SimDuration link_latency) {
  net::IntStackEntry e;
  e.device = device;
  e.ingress_port = in_port;
  e.egress_port = out_port;
  e.max_queue_pkts = queue;
  e.device_max_queue_pkts = queue;
  e.ingress_link_latency = link_latency;
  return e;
}

/// host 0 -> s10 -> s11 -> host 1 (candidate server / collector).
telemetry::ProbeReport simple_report(std::int64_t q10 = 0,
                                     std::int64_t q11 = 0) {
  telemetry::ProbeReport r;
  r.src = core::NodeId{0};
  r.dst = core::NodeId{1};
  r.entries = {
      entry(core::NodeId{10}, 0, 2, q10, ms(10)),
      entry(core::NodeId{11}, 1, 3, q11, ms(12)),
  };
  r.final_link_latency = ms(9);
  return r;
}

/// Field-exact ServerRank equality against the oracle.
void expect_ranks_identical(const std::vector<ServerRank>& got,
                            const std::vector<ServerRank>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << "rank " << i;
    EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate) << "rank " << i;
    EXPECT_EQ(got[i].bandwidth_estimate.bps(),
              want[i].bandwidth_estimate.bps())
        << "rank " << i;
    EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay) << "rank " << i;
    EXPECT_EQ(got[i].outstanding_tasks, want[i].outstanding_tasks)
        << "rank " << i;
    EXPECT_EQ(got[i].stale, want[i].stale) << "rank " << i;
  }
}

ShardedNetworkMap one_region(RankerConfig ranker = {}) {
  return ShardedNetworkMap{RegionAssignment::single_region(kNodes),
                           ShardedMapConfig{.ranker = std::move(ranker)}};
}

/// How reports reach readers. The enumerator values are part of the test
/// ids (gtest prints the parameter's bytes).
enum class PublishMode : std::uint8_t {
  kSnapshot,  ///< ingest()/ingest_batch(): one published view per call
  kLazy,      ///< apply() only; readers publish first when reports moved
};

class ConcurrentMapModes : public ::testing::TestWithParam<PublishMode> {
 protected:
  [[nodiscard]] bool lazy() const { return GetParam() == PublishMode::kLazy; }

  void ingest(ShardedNetworkMap& map, const telemetry::ProbeReport& r,
              sim::SimTime now) const {
    if (lazy()) {
      map.apply(r, now);
    } else {
      map.ingest(r, now);
    }
  }
  void ingest_batch(ShardedNetworkMap& map,
                    const std::vector<telemetry::ProbeReport>& burst,
                    sim::SimTime now) const {
    if (lazy()) {
      for (const auto& r : burst) map.apply(r, now);
    } else {
      map.ingest_batch(burst, now);
    }
  }
  /// A read: the lazy mode publishes first when reports moved, exactly
  /// as SchedulerService::view() does.
  [[nodiscard]] std::vector<ServerRank> rank(
      ShardedNetworkMap& map, core::NodeId origin,
      const std::vector<core::NodeId>& candidates, RankingMetric metric,
      sim::SimTime now) const {
    if (lazy() && map.view()->epoch() != Epoch{map.reports_ingested()}) {
      map.publish();
    }
    return map.rank(origin, candidates, metric, now);
  }
};

INSTANTIATE_TEST_SUITE_P(
    BothModes, ConcurrentMapModes,
    ::testing::Values(PublishMode::kSnapshot, PublishMode::kLazy),
    [](const ::testing::TestParamInfo<PublishMode>& param_info) {
      return std::string{param_info.param == PublishMode::kLazy ? "lazy"
                                                                 : "snapshot"};
    });

TEST(OneRegionMapTest, OnlyProvisionedIdsAreInRegionZero) {
  const RegionAssignment one = RegionAssignment::single_region(kNodes);
  EXPECT_EQ(one.count(), core::RegionId{1});
  EXPECT_EQ(one.region_of(core::NodeId{0}), core::RegionId{0});
  EXPECT_EQ(one.region_of(core::NodeId{kNodes - 1}), core::RegionId{0});
  EXPECT_EQ(one.region_of(core::NodeId{kNodes}), core::kNoRegion);
  EXPECT_EQ(one.region_of(core::NodeId{5000000}), core::kNoRegion);
  EXPECT_EQ(one.region_of(core::kInvalidNode), core::kNoRegion);
  EXPECT_EQ(RegionAssignment::single_region(0).region_of(core::NodeId{0}),
            core::kNoRegion);

  // So an INT entry naming an id past the provisioned range is rejected
  // at ingest: counted, its links never learned, and the rest of the
  // report chains around it exactly as the flat map chains around an
  // invalid id — the view still has no borders and an empty summary.
  ShardedNetworkMap map = one_region();
  telemetry::ProbeReport r = simple_report();
  r.entries.insert(r.entries.begin() + 1,
                   entry(core::NodeId{5000000}, 2, 4, 3, ms(7)));
  map.ingest(r, at_ms(0));
  EXPECT_EQ(map.rejected_entries(), 1);
  EXPECT_EQ(map.reports_ingested(), 1);
  const auto view = map.view();
  EXPECT_TRUE(view->borders_of(core::RegionId{0}).empty());
  EXPECT_EQ(view->summary_map().known_link_count(), 0);
  const NetworkMap& region = view->region_snapshot(core::RegionId{0}).map();
  EXPECT_FALSE(region.knows_node(core::NodeId{5000000}));
  EXPECT_TRUE(region.knows_node(core::NodeId{11}));

  telemetry::ProbeReport oracle_report = r;
  oracle_report.entries[1].device = core::kInvalidNode;
  NetworkMap plain;
  plain.ingest(oracle_report, at_ms(0));
  const Ranker oracle{plain};
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(
        map.rank(core::NodeId{0}, candidates, metric, at_ms(1)),
        oracle.rank(core::NodeId{0}, candidates, metric, at_ms(1)));
  }
}

TEST_P(ConcurrentMapModes, SingleThreadedBehaviourMatchesNetworkMap) {
  ShardedNetworkMap shared = one_region();
  ingest(shared, simple_report(), at_ms(0));

  NetworkMap plain;
  plain.ingest(simple_report(), at_ms(0));

  if (lazy()) {
    EXPECT_EQ(shared.view()->epoch(), Epoch{0}) << "apply published";
    shared.publish();
  }
  const auto view = shared.view();
  const NetworkMap& region = view->region_snapshot(core::RegionId{0}).map();
  EXPECT_TRUE(region.knows_node(core::NodeId{10}));
  EXPECT_EQ(shared.reports_ingested(), 1);
  EXPECT_EQ(shared.rejected_entries(), 0);
  EXPECT_EQ(view->epoch(), Epoch{1});
  EXPECT_EQ(region.link_delay(core::NodeId{0}, core::NodeId{10}),
            plain.link_delay(core::NodeId{0}, core::NodeId{10}));
  EXPECT_EQ(region.link_delay(core::NodeId{10}, core::NodeId{11}),
            plain.link_delay(core::NodeId{10}, core::NodeId{11}));
}

TEST_P(ConcurrentMapModes, RankMatchesDirectRankerAndCountsQueries) {
  ShardedNetworkMap shared = one_region();
  ingest(shared, simple_report(), at_ms(0));

  NetworkMap plain;
  plain.ingest(simple_report(), at_ms(0));
  const Ranker ranker{plain};

  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  const std::vector<ServerRank> got =
      rank(shared, core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));
  const std::vector<ServerRank> want =
      ranker.rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  expect_ranks_identical(got, want);
  EXPECT_EQ(shared.queries_served(), 1);
}

TEST_P(ConcurrentMapModes, IngestBatchMatchesSequentialIngests) {
  ShardedNetworkMap batched = one_region();
  ShardedNetworkMap sequential = one_region();

  std::vector<telemetry::ProbeReport> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(simple_report(i % 5, (i * 3) % 7));
  }
  ingest_batch(batched, burst, at_ms(5));
  for (const auto& r : burst) ingest(sequential, r, at_ms(5));

  EXPECT_EQ(batched.reports_ingested(), sequential.reports_ingested());
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(rank(batched, core::NodeId{0}, candidates, metric, at_ms(6)),
                           rank(sequential, core::NodeId{0}, candidates, metric, at_ms(6)));
  }
}

TEST_P(ConcurrentMapModes, EmptyBatchIsANoOp) {
  ShardedNetworkMap shared = one_region();
  ingest_batch(shared, {}, at_ms(0));
  EXPECT_EQ(shared.reports_ingested(), 0);
  EXPECT_EQ(shared.view()->epoch(), Epoch{0});
}

// Regression: a k-factor change between ingests must take effect on the
// very next rank. A published view carries the config it was built
// under, so set_k_factor must republish; without it the old k would be
// served until the next ingest.
TEST_P(ConcurrentMapModes, KFactorChangeAppliesWithoutNewIngest) {
  ShardedNetworkMap shared = one_region();
  ingest(shared, simple_report(6, 4), at_ms(0));

  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  const std::vector<ServerRank> before =
      rank(shared, core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  shared.set_k_factor(ms(50));
  const std::vector<ServerRank> after =
      rank(shared, core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  NetworkMap plain;
  plain.ingest(simple_report(6, 4), at_ms(0));
  RankerConfig cfg;
  cfg.k_factor = ms(50);
  const Ranker ranker{plain, cfg};
  const std::vector<ServerRank> want =
      ranker.rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  ASSERT_EQ(before.size(), 1u);
  EXPECT_NE(before[0].delay_estimate, after[0].delay_estimate)
      << "k change had no effect on the next rank";
  expect_ranks_identical(after, want);
}

// The equivalence contract: for the same report sequence the one-region
// map — published eagerly by ingest(), or lazily by apply() + publish()
// as SchedulerService does — returns the oracle's ServerRank vectors at
// every step, for both metrics; and apply() alone leaves the published
// view where it was.
TEST(OneRegionMapTest, MatchesRankerOracleOverAnIngestSequence) {
  ShardedNetworkMap eager = one_region();
  ShardedNetworkMap lazy = one_region();
  NetworkMap plain;
  const Ranker oracle{plain};

  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  for (int i = 0; i < 20; ++i) {
    const telemetry::ProbeReport r = simple_report(i % 7, (i * 5) % 11);
    eager.ingest(r, at_ms(i));
    plain.ingest(r, at_ms(i));
    lazy.apply(r, at_ms(i));
    EXPECT_EQ(lazy.view()->epoch(), Epoch{i}) << "apply published";
    lazy.publish();
    EXPECT_EQ(lazy.view()->epoch(), Epoch{i + 1});
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      const auto want = oracle.rank(core::NodeId{0}, candidates, metric, at_ms(i));
      expect_ranks_identical(eager.rank(core::NodeId{0}, candidates, metric, at_ms(i)), want);
      expect_ranks_identical(lazy.rank(core::NodeId{0}, candidates, metric, at_ms(i)), want);
    }
  }
  EXPECT_EQ(eager.reports_ingested(), plain.reports_ingested());
  EXPECT_EQ(lazy.reports_ingested(), plain.reports_ingested());
}

TEST_P(ConcurrentMapModes, ConcurrentIngestAndRankKeepTotalsExact) {
  constexpr int kIngestTasks = 4;
  constexpr int kRankTasks = 4;
  constexpr int kOpsPerTask = 50;

  ShardedNetworkMap shared = one_region();
  // Seed the topology so rank tasks have a graph from the first instant.
  ingest(shared, simple_report(), at_ms(0));

  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < kIngestTasks; ++t) {
    tasks.push_back([this, &shared, t] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        // Distinct queue values and times per task: every ingest really
        // mutates the EWMAs, windows, and the published epoch.
        ingest(shared, simple_report(i % 7, (i + t) % 5), at_ms(1 + i));
      }
    });
  }
  for (int t = 0; t < kRankTasks; ++t) {
    tasks.push_back([this, &shared, &candidates] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        // In the lazy mode readers publish concurrently with appliers.
        const std::vector<ServerRank> ranked =
            rank(shared, core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1 + i));
        // Interleaving-insensitive: shape and ordering policy only.
        ASSERT_EQ(ranked.size(), candidates.size());
        EXPECT_LE(ranked[0].delay_estimate, ranked[1].delay_estimate);
      }
    });
  }

  const exp::SweepRunner runner{4};
  runner.run(std::move(tasks));

  EXPECT_EQ(shared.reports_ingested(), 1 + kIngestTasks * kOpsPerTask);
  EXPECT_EQ(shared.queries_served(), kRankTasks * kOpsPerTask);

  // After the join the state has quiesced: ranking is deterministic again.
  const std::vector<ServerRank> final_rank =
      rank(shared, core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(kOpsPerTask));
  ASSERT_EQ(final_rank.size(), 2u);
  EXPECT_EQ(final_rank[0].server, core::NodeId{1});
  EXPECT_EQ(final_rank[1].server, core::NodeId{99});  // never probed: unreachable, last
}

}  // namespace
}  // namespace intsched::core
