// RankSnapshot (the frozen region store every published view reads) and
// the lock-free read path of a one-region ShardedNetworkMap — the flat
// scheduler's map: immutability, lazy once-only Dijkstra memoization,
// the freshness/linearizability property (a rank() issued after
// ingest() — or publish() — of report N returns must observe a view with
// epoch >= N), and an 8-reader/1-writer torture run. All parallelism
// flows through exp::SweepRunner (the sanctioned pool); worker tasks
// record into index-addressed slots and the assertions run after the
// join, so the tests are schedule-insensitive while giving
// ThreadSanitizer (the `tsan` preset, ctest label `perf`) real traffic
// over the view-publish / view-load edge and the call_once memo fills.
//
// The shared progress counter below is the test's own cross-thread state:
// intsched-lint: allow-file(thread-share): freshness property needs a
//   release/acquire progress counter between writer and readers

#include "intsched/core/rank_snapshot.hpp"

#include <atomic>
#include <functional>
#include <memory>
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

TEST(RankSnapshotTest, RankMatchesRankerOnTheSameMap) {
  NetworkMap map;
  map.ingest(simple_report(5, 3), at_ms(0));
  map.ingest(simple_report(2, 7), at_ms(1));
  ShardedNetworkMap shared{RegionAssignment::single_region(kNodes)};
  shared.ingest(simple_report(5, 3), at_ms(0));
  shared.ingest(simple_report(2, 7), at_ms(1));

  // The view's one region snapshot is the flat map, frozen at its epoch.
  const std::shared_ptr<const MetroView> view = shared.view();
  EXPECT_EQ(view->region_snapshot(core::RegionId{0}).epoch(),
            map.ingest_epoch());

  const Ranker ranker{map};
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(view->rank(core::NodeId{0}, candidates, metric, at_ms(2)),
                           ranker.rank(core::NodeId{0}, candidates, metric, at_ms(2)));
  }
}

TEST(RankSnapshotTest, SnapshotIsImmutableAcrossLaterIngest) {
  ShardedNetworkMap shared{RegionAssignment::single_region(kNodes)};
  shared.ingest(simple_report(4, 4), at_ms(0));

  const std::shared_ptr<const MetroView> old = shared.view();
  ASSERT_NE(old, nullptr);
  const Epoch old_epoch = old->epoch();
  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  const auto before = old->rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  // Heavier congestion arrives; the *old* view must not move.
  shared.ingest(simple_report(60, 60), at_ms(1));
  EXPECT_EQ(old->epoch(), old_epoch);
  expect_ranks_identical(
      old->rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1)), before);

  const std::shared_ptr<const MetroView> fresh = shared.view();
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(fresh->epoch(), old_epoch);
  const auto after = fresh->rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));
  EXPECT_GT(after[0].delay_estimate, before[0].delay_estimate);
}

TEST(RankSnapshotTest, DijkstraMemoFillsOncePerOrigin) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  const RankSnapshot snapshot{map};
  EXPECT_EQ(snapshot.epoch(), map.ingest_epoch());

  const net::ShortestPaths* first = snapshot.paths_from(core::NodeId{0});
  ASSERT_NE(first, nullptr);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(snapshot.paths_from(core::NodeId{0}), first);
  }
  EXPECT_EQ(snapshot.memo_fills(), 1);
  EXPECT_EQ(first->path_to(core::NodeId{1}),
            net::dijkstra(map.delay_graph(), core::NodeId{0})
                .path_to(core::NodeId{1}));

  ASSERT_NE(snapshot.paths_from(core::NodeId{1}), nullptr);
  EXPECT_EQ(snapshot.memo_fills(), 2);

  // Unknown origin: no slot, nothing memoized.
  EXPECT_EQ(snapshot.paths_from(core::NodeId{777}), nullptr);
  EXPECT_EQ(snapshot.memo_fills(), 2);
}

// Freshness/linearizability property: ingest() of report N publishes
// before it returns (and so does publish() after apply()), so any
// observation that starts after the return must see epoch >= N. The
// writer advances a release-stored progress counter only after each
// publish returns; readers acquire-load the counter, then load the view —
// seeing an older epoch would be a publication-order violation.
// Violations are counted per reader slot and asserted after the join
// (gtest assertions are not thread-safe on worker threads). Readers run a
// fixed observation count rather than polling a done flag: on a
// single-core box the writer can finish before any reader is ever
// scheduled, and the property must be checked under whatever overlap the
// machine actually provides (including none).
TEST(RankSnapshotTest, FreshnessPropertyUnderConcurrentIngest) {
  constexpr int kReports = 400;
  constexpr int kReaders = 4;
  constexpr int kObservationsPerReader = 200;

  ShardedNetworkMap shared{RegionAssignment::single_region(kNodes)};
  shared.ingest(simple_report(), at_ms(0));

  std::atomic<std::int64_t> progress{1};  // reports whose publish returned
  std::vector<std::int64_t> violations(kReaders, 0);

  std::vector<std::function<void()>> tasks;
  tasks.push_back([&shared, &progress] {
    for (int i = 1; i <= kReports; ++i) {
      if (i % 2 == 0) {
        shared.ingest(simple_report(i % 9, i % 6), at_ms(i));
      } else {
        shared.apply(simple_report(i % 9, i % 6), at_ms(i));
        shared.publish();
      }
      progress.store(1 + i, std::memory_order_release);
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    tasks.push_back([&shared, &progress, &violations, t] {
      const std::vector<core::NodeId> candidates{core::NodeId{1}};
      for (int i = 0; i < kObservationsPerReader; ++i) {
        const std::int64_t seen = progress.load(std::memory_order_acquire);
        const std::shared_ptr<const MetroView> view = shared.view();
        if (view->epoch() < Epoch{seen}) ++violations[static_cast<std::size_t>(t)];
        (void)shared.rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(static_cast<int>(seen)));
      }
    });
  }

  const exp::SweepRunner runner{1 + kReaders};
  runner.run(std::move(tasks));

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(violations[static_cast<std::size_t>(t)], 0)
        << "reader " << t << " observed a pre-ingest view";
  }
  EXPECT_EQ(shared.reports_ingested(), 1 + kReports);
  // At quiescence the published view is the newest epoch.
  EXPECT_EQ(shared.view()->epoch(), Epoch{1 + kReports});
}

// Torture: 8 readers hammering the lock-free path against 1 writer mixing
// single and batched ingest, ~10k ops total. Asserts exact totals after
// the join and that the final state matches the flat oracle fed the same
// reports — while giving TSan maximal view-churn traffic.
TEST(RankSnapshotTest, TortureEightReadersOneWriter) {
  constexpr int kReaders = 8;
  constexpr int kRanksPerReader = 1000;   // 8k ranks
  constexpr int kSingles = 1000;          // 1k single ingests
  constexpr int kBatches = 250;           // 1k more reports, batched by 4
  constexpr int kBatchSize = 4;

  ShardedNetworkMap shared{RegionAssignment::single_region(kNodes)};
  shared.ingest(simple_report(), at_ms(0));

  const auto burst_of = [](int b) {
    std::vector<telemetry::ProbeReport> burst;
    burst.reserve(kBatchSize);
    for (int j = 0; j < kBatchSize; ++j) {
      burst.push_back(simple_report((b + j) % 11, (b * j) % 7));
    }
    return burst;
  };

  std::vector<std::function<void()>> tasks;
  tasks.push_back([&shared, &burst_of] {
    for (int i = 0; i < kSingles; ++i) {
      shared.ingest(simple_report(i % 13, i % 8), at_ms(1 + i));
    }
    for (int b = 0; b < kBatches; ++b) {
      shared.ingest_batch(burst_of(b), at_ms(1 + kSingles + b));
    }
  });
  std::vector<std::int64_t> bad_shapes(kReaders, 0);
  for (int t = 0; t < kReaders; ++t) {
    tasks.push_back([&shared, &bad_shapes, t] {
      const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
      for (int i = 0; i < kRanksPerReader; ++i) {
        const auto metric = (i % 2 == 0) ? RankingMetric::kDelay
                                         : RankingMetric::kBandwidth;
        const std::vector<ServerRank> ranked =
            shared.rank(core::NodeId{t}, candidates, metric, at_ms(i));
        if (ranked.size() != candidates.size()) {
          ++bad_shapes[static_cast<std::size_t>(t)];
        }
      }
    });
  }

  const exp::SweepRunner runner{1 + kReaders};
  runner.run(std::move(tasks));

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(bad_shapes[static_cast<std::size_t>(t)], 0) << "reader " << t;
  }
  const std::int64_t expected_reports =
      1 + kSingles + static_cast<std::int64_t>(kBatches) * kBatchSize;
  EXPECT_EQ(shared.reports_ingested(), expected_reports);
  EXPECT_EQ(shared.queries_served(),
            static_cast<std::int64_t>(kReaders) * kRanksPerReader);
  EXPECT_EQ(shared.view()->epoch(), Epoch{expected_reports});

  // Quiesced state matches the flat oracle over the same reports.
  NetworkMap plain;
  plain.ingest(simple_report(), at_ms(0));
  for (int i = 0; i < kSingles; ++i) {
    plain.ingest(simple_report(i % 13, i % 8), at_ms(1 + i));
  }
  for (int b = 0; b < kBatches; ++b) {
    for (const telemetry::ProbeReport& r : burst_of(b)) {
      plain.ingest(r, at_ms(1 + kSingles + b));
    }
  }
  const Ranker oracle{plain};
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  const int final_t = 1 + kSingles + kBatches;
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(
        shared.rank(core::NodeId{0}, candidates, metric, at_ms(final_t)),
        oracle.rank(core::NodeId{0}, candidates, metric, at_ms(final_t)));
  }
}

}  // namespace
}  // namespace intsched::core
