// Compiled rank planes (DESIGN.md §15) — plane/legacy equivalence pack.
//
// The compiled plane path must be *byte-identical* to the uncompiled
// reference ranking: every field of every ServerRank, in every position,
// for every metric, queue statistic, staleness regime, and candidate
// shape (reachable, unreachable, unknown-id, origin-as-candidate) — over
// seeded metro topologies, on both the flat (one-region) map and the
// two-level sharded MetroView path. The oracle is the same build with
// RankerConfig::compile_rank_plane = false, which routes every query
// through the uncompiled rank_paths_into path; on the flat map both are
// also held to the tests/support Algorithm 1 oracle.

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"
#include "support/flat_ranker.hpp"

namespace intsched::core {
namespace {

// Field-exact (and for the floating-point field, bit-exact) comparison:
// EXPECT_EQ on doubles already requires exact equality, which is the
// contract — the plane kernels run the same arithmetic in the same order.
void expect_ranks_identical(const std::vector<ServerRank>& got,
                            const std::vector<ServerRank>& want,
                            const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << what << " rank " << i;
    EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate)
        << what << " rank " << i;
    const double gb = got[i].bandwidth_estimate.bps();
    const double wb = want[i].bandwidth_estimate.bps();
    EXPECT_EQ(std::memcmp(&gb, &wb, sizeof gb), 0)
        << what << " rank " << i << ": " << gb << " vs " << wb;
    EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay)
        << what << " rank " << i;
    EXPECT_EQ(got[i].outstanding_tasks, want[i].outstanding_tasks)
        << what << " rank " << i;
    EXPECT_EQ(got[i].stale, want[i].stale) << what << " rank " << i;
  }
}

struct MetroFixture {
  net::GenTopology topo;
  std::vector<std::vector<telemetry::ProbeReport>> batches;

  explicit MetroFixture(std::int32_t pods, std::int32_t epochs,
                        std::uint64_t seed = 42) {
    net::MetroConfig cfg;
    cfg.seed = seed;
    cfg.pods = pods;
    topo = net::TopologyGen::ring_of_pods(cfg);
    exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = seed}};
    batches.push_back(gen.full_sweep());
    const auto refresh =
        std::max<std::int64_t>(1,
                               static_cast<std::int64_t>(topo.links.size()) / 4);
    for (std::int32_t e = 1; e < epochs; ++e) {
      batches.push_back(gen.refresh(refresh));
    }
  }

  [[nodiscard]] static sim::SimTime epoch_time(std::size_t e) {
    return sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
  }

  /// Candidate set exercising every row shape: real edge servers, an id
  /// nothing has ever probed (no graph node, no plane row), and the
  /// query origin itself (its path to itself has one node — unreachable
  /// by the ranking contract).
  [[nodiscard]] std::vector<core::NodeId> candidates_with_edge_cases(
      core::NodeId origin) const {
    std::vector<core::NodeId> c = topo.edge_servers();
    c.push_back(core::NodeId{999983});  // unknown everywhere
    c.push_back(origin);
    return c;
  }
};

struct ConfigCase {
  const char* name;
  QueueStatistic statistic;
  sim::SimDuration staleness;
};

const ConfigCase kCases[] = {
    {"max/no-staleness", QueueStatistic::kMaximum, sim::SimDuration::zero()},
    {"avg/no-staleness", QueueStatistic::kAverage, sim::SimDuration::zero()},
    {"hop/no-staleness", QueueStatistic::kMeasuredHopLatency,
     sim::SimDuration::zero()},
    // Tight window: by the later epochs many links are stale, so the
    // stale-bit gather path is exercised with both outcomes.
    {"max/staleness", QueueStatistic::kMaximum,
     sim::SimDuration::millis(1500)},
};

RankerConfig ranker_config(const ConfigCase& c, bool compile_plane) {
  RankerConfig cfg;
  cfg.queue_statistic = c.statistic;
  cfg.compile_rank_plane = compile_plane;
  return cfg;
}

NetworkMapConfig map_config(const ConfigCase& c) {
  NetworkMapConfig cfg;
  cfg.link_staleness = c.staleness;
  return cfg;
}

// Flat path: a one-region map with planes on vs off, and the flat oracle.
TEST(RankPlaneProperty, FlatSnapshotMatchesLegacyByteExact) {
  MetroFixture m{3, 6};
  for (const ConfigCase& c : kCases) {
    ShardedNetworkMap with_plane{
        RegionAssignment::single_region(),
        ShardedMapConfig{.map = map_config(c), .ranker = ranker_config(c, true)}};
    ShardedNetworkMap legacy{
        RegionAssignment::single_region(),
        ShardedMapConfig{.map = map_config(c), .ranker = ranker_config(c, false)}};
    NetworkMap flat_map{map_config(c)};
    const Ranker oracle{flat_map, ranker_config(c, false)};
    for (std::size_t e = 0; e < m.batches.size(); ++e) {
      const sim::SimTime now = MetroFixture::epoch_time(e);
      with_plane.ingest_batch(m.batches[e], now);
      legacy.ingest_batch(m.batches[e], now);
      for (const auto& r : m.batches[e]) flat_map.ingest(r, now);
      for (const core::NodeId origin :
           {m.topo.hosts()[0], m.topo.hosts()[7], m.topo.hosts().back()}) {
        const auto candidates = m.candidates_with_edge_cases(origin);
        for (const auto metric :
             {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
          const auto want = oracle.rank(origin, candidates, metric, now);
          expect_ranks_identical(
              with_plane.rank(origin, candidates, metric, now), want, c.name);
          expect_ranks_identical(legacy.rank(origin, candidates, metric, now),
                                 want, c.name);
        }
      }
    }
  }
}

// Two-level path: ShardedNetworkMap / MetroView with planes on vs off,
// including rank_topk_into prefixes and pick_with (answer + PickStats).
TEST(RankPlaneProperty, ShardedMetroMatchesLegacyByteExact) {
  MetroFixture m{4, 5};
  const RegionAssignment regions = RegionAssignment::from_topology(m.topo);
  for (const ConfigCase& c : kCases) {
    ShardedMapConfig on_cfg;
    on_cfg.map = map_config(c);
    on_cfg.ranker = ranker_config(c, true);
    ShardedMapConfig off_cfg = on_cfg;
    off_cfg.ranker.compile_rank_plane = false;
    ShardedNetworkMap with_plane{regions, on_cfg};
    ShardedNetworkMap legacy{regions, off_cfg};
    for (std::size_t e = 0; e < m.batches.size(); ++e) {
      const sim::SimTime now = MetroFixture::epoch_time(e);
      with_plane.ingest_batch(m.batches[e], now);
      legacy.ingest_batch(m.batches[e], now);
    }
    const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
    for (const core::NodeId origin :
         {m.topo.hosts()[0], m.topo.hosts()[3], m.topo.hosts().back()}) {
      const auto candidates = m.candidates_with_edge_cases(origin);
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        expect_ranks_identical(with_plane.rank(origin, candidates, metric, now),
                               legacy.rank(origin, candidates, metric, now),
                               c.name);
      }
      // pick must agree in answer AND in pruning observability: the
      // plane group kernel replaces only the per-group scoring, not the
      // region pruning loop.
      PickStats plane_stats;
      PickStats legacy_stats;
      const std::optional<ServerRank> got = with_plane.pick(
          origin, candidates, RankingMetric::kDelay, now, &plane_stats);
      const std::optional<ServerRank> want = legacy.pick(
          origin, candidates, RankingMetric::kDelay, now, &legacy_stats);
      ASSERT_EQ(got.has_value(), want.has_value()) << c.name;
      if (got.has_value()) {
        expect_ranks_identical({*got}, {*want}, c.name);
      }
      EXPECT_EQ(plane_stats.regions_considered, legacy_stats.regions_considered)
          << c.name;
      EXPECT_EQ(plane_stats.regions_pruned, legacy_stats.regions_pruned)
          << c.name;
      EXPECT_EQ(plane_stats.candidates_scored, legacy_stats.candidates_scored)
          << c.name;
    }
  }
}

// Deterministic top-k: for every k, the partial selection's output is
// exactly the full ranking's first min(k, n) entries — on both the plane
// path and the legacy fallback (which truncates a full sort).
TEST(RankPlaneProperty, TopKPrefixMatchesFullRanking) {
  MetroFixture m{3, 3};
  for (const bool compiled : {true, false}) {
    ShardedMapConfig cfg;
    cfg.ranker.compile_rank_plane = compiled;
    ShardedNetworkMap map{RegionAssignment::from_topology(m.topo), cfg};
    for (std::size_t e = 0; e < m.batches.size(); ++e) {
      map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    }
    const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
    const std::shared_ptr<const MetroView> view = map.view();
    MetroView::RankScratch scratch;
    std::vector<ServerRank> full;
    std::vector<ServerRank> topk;
    for (const core::NodeId origin : {m.topo.hosts()[0], m.topo.hosts()[9]}) {
      const auto candidates = m.candidates_with_edge_cases(origin);
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        view->rank_into(origin, candidates.data(), candidates.size(), metric,
                        now, scratch, full);
        ASSERT_EQ(full.size(), candidates.size());
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{2}, std::size_t{7},
              candidates.size() - 1, candidates.size(), candidates.size() + 8}) {
          view->rank_topk_into(origin, candidates.data(), candidates.size(),
                               metric, now, k, scratch, topk);
          const std::size_t want = std::min(k, candidates.size());
          ASSERT_EQ(topk.size(), want) << "k=" << k;
          expect_ranks_identical(
              topk, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(want)},
              compiled ? "compiled topk" : "legacy topk");
        }
      }
    }
  }
}

// Unknown origin (never probed, no slot anywhere): both paths must
// rank every candidate unreachable, identically.
TEST(RankPlaneProperty, UnknownOriginRanksIdentically) {
  MetroFixture m{2, 2};
  ShardedMapConfig on_cfg;
  ShardedMapConfig off_cfg;
  off_cfg.ranker.compile_rank_plane = false;
  ShardedNetworkMap with_plane{RegionAssignment::from_topology(m.topo), on_cfg};
  ShardedNetworkMap legacy{RegionAssignment::from_topology(m.topo), off_cfg};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    with_plane.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    legacy.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const core::NodeId ghost{888888};
  const auto candidates = m.topo.edge_servers();
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    const auto got = with_plane.rank(ghost, candidates, metric, now);
    expect_ranks_identical(got, legacy.rank(ghost, candidates, metric, now),
                           "unknown origin");
    for (const ServerRank& r : got) {
      EXPECT_EQ(r.delay_estimate, sim::SimDuration::max());
      EXPECT_EQ(r.bandwidth_estimate.bps(), 0.0);
    }
  }
}

}  // namespace
}  // namespace intsched::core
