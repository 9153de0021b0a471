// Compiled rank planes (DESIGN.md §15) — plane/legacy equivalence pack.
//
// The compiled plane is the only ranking kernel; the legacy per-path
// scorer survives only as the flat Algorithm 1 oracle in tests/support.
// The plane must be *byte-identical* to that oracle: every field of every
// ServerRank, in every position, for every metric, queue statistic,
// staleness regime, and candidate shape (reachable, unreachable,
// unknown-id, origin-as-candidate) — over seeded metro topologies, on
// both the flat (one-region) map and the two-level sharded MetroView
// path, whose delay-isolated regions make the assembled two-level paths
// the flat shortest paths.

#include <cstring>
#include <map>
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

RankerConfig ranker_config(const ConfigCase& c) {
  RankerConfig cfg;
  cfg.queue_statistic = c.statistic;
  return cfg;
}

NetworkMapConfig map_config(const ConfigCase& c) {
  NetworkMapConfig cfg;
  cfg.link_staleness = c.staleness;
  return cfg;
}

/// Distinct candidate regions and per-region group sizes, the way
/// pick_with groups candidates (unprovisioned ids share kNoRegion).
std::map<core::RegionId, std::int64_t> region_groups(
    const ShardedNetworkMap& map, const std::vector<core::NodeId>& candidates) {
  std::map<core::RegionId, std::int64_t> groups;
  for (const core::NodeId c : candidates) ++groups[map.region_of(c)];
  return groups;
}

/// PickStats invariants: every candidate region is either considered or
/// pruned, and candidates_scored is the summed size of exactly
/// regions_considered of the groups — the origin's own group (bound 0,
/// never pruned) among them.
void expect_pick_stats_consistent(const PickStats& stats,
                                  const std::map<core::RegionId, std::int64_t>&
                                      groups,
                                  core::RegionId origin_region,
                                  const char* what) {
  EXPECT_EQ(stats.regions_considered + stats.regions_pruned,
            static_cast<std::int64_t>(groups.size()))
      << what;
  std::vector<std::int64_t> sizes;
  std::size_t origin_ix = groups.size();
  for (const auto& [region, size] : groups) {
    if (region == origin_region) origin_ix = sizes.size();
    sizes.push_back(size);
  }
  ASSERT_LT(origin_ix, sizes.size()) << what;
  ASSERT_LT(sizes.size(), 16u) << what;
  bool found = false;
  for (std::uint32_t mask = 0; mask < (1u << sizes.size()) && !found;
       ++mask) {
    if ((mask & (1u << origin_ix)) == 0) continue;
    std::int64_t considered = 0;
    std::int64_t scored = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if ((mask & (1u << i)) != 0) {
        ++considered;
        scored += sizes[i];
      }
    }
    found = considered == stats.regions_considered &&
            scored == stats.candidates_scored;
  }
  EXPECT_TRUE(found) << what << ": candidates_scored "
                     << stats.candidates_scored << " is no sum of "
                     << stats.regions_considered << " group sizes";
}

// Flat path: a one-region map held to the flat oracle.
TEST(RankPlaneProperty, FlatSnapshotMatchesLegacyByteExact) {
  MetroFixture m{3, 6};
  const auto nodes = static_cast<std::int32_t>(m.topo.nodes.size());
  for (const ConfigCase& c : kCases) {
    ShardedNetworkMap one_region{
        RegionAssignment::single_region(nodes),
        ShardedMapConfig{.map = map_config(c), .ranker = ranker_config(c)}};
    NetworkMap flat_map{map_config(c)};
    const Ranker oracle{flat_map, ranker_config(c)};
    for (std::size_t e = 0; e < m.batches.size(); ++e) {
      const sim::SimTime now = MetroFixture::epoch_time(e);
      one_region.ingest_batch(m.batches[e], now);
      for (const auto& r : m.batches[e]) flat_map.ingest(r, now);
      for (const core::NodeId origin :
           {m.topo.hosts()[0], m.topo.hosts()[7], m.topo.hosts().back()}) {
        const auto candidates = m.candidates_with_edge_cases(origin);
        for (const auto metric :
             {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
          expect_ranks_identical(
              one_region.rank(origin, candidates, metric, now),
              oracle.rank(origin, candidates, metric, now), c.name);
        }
      }
    }
  }
}

/// Two-level path on one seeded metro: ShardedNetworkMap / MetroView held
/// to the flat oracle from every host — rank for both metrics, pick's
/// answer, and pick's pruning observability.
void expect_sharded_matches_oracle(std::uint64_t seed, std::int32_t pods) {
  MetroFixture m{pods, 3, seed};
  const RegionAssignment regions = RegionAssignment::from_topology(m.topo);
  for (const ConfigCase& c : kCases) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << pods
                                    << " pods, " << c.name);
    ShardedMapConfig cfg;
    cfg.map = map_config(c);
    cfg.ranker = ranker_config(c);
    ShardedNetworkMap sharded{regions, cfg};
    NetworkMap flat_map{map_config(c)};
    for (std::size_t e = 0; e < m.batches.size(); ++e) {
      const sim::SimTime now = MetroFixture::epoch_time(e);
      sharded.ingest_batch(m.batches[e], now);
      for (const auto& r : m.batches[e]) flat_map.ingest(r, now);
    }
    const Ranker oracle{flat_map, ranker_config(c)};
    const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
    for (const core::NodeId origin : m.topo.hosts()) {
      const auto candidates = m.candidates_with_edge_cases(origin);
      std::vector<ServerRank> by_delay;
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        const auto want = oracle.rank(origin, candidates, metric, now);
        expect_ranks_identical(sharded.rank(origin, candidates, metric, now),
                               want, c.name);
        if (metric == RankingMetric::kDelay) by_delay = want;
      }
      PickStats stats;
      const std::optional<ServerRank> got = sharded.pick(
          origin, candidates, RankingMetric::kDelay, now, &stats);
      ASSERT_TRUE(got.has_value()) << c.name;
      expect_ranks_identical({*got}, {by_delay.front()}, c.name);
      expect_pick_stats_consistent(stats, region_groups(sharded, candidates),
                                   sharded.region_of(origin), c.name);
    }
  }
}

TEST(RankPlaneProperty, ShardedMetroMatchesLegacyByteExact) {
  for (const std::uint64_t seed : {42u, 7u, 11u}) {
    for (const std::int32_t pods : {3, 4, 6}) {
      expect_sharded_matches_oracle(seed, pods);
    }
  }
}

// Deterministic top-k: for every k, the partial selection's output is
// exactly the full ranking's first min(k, n) entries.
TEST(RankPlaneProperty, TopKPrefixMatchesFullRanking) {
  MetroFixture m{3, 3};
  ShardedNetworkMap map{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::shared_ptr<const MetroView> view = map.view();
  MetroView::RankScratch scratch;
  std::vector<ServerRank> full;
  std::vector<ServerRank> topk;
  const core::NodeId ghost{888888};
  for (const core::NodeId origin : {m.topo.hosts()[0], m.topo.hosts()[9], ghost}) {
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
            "topk");
      }
    }
  }
}

// Unknown origin (never probed, no slot anywhere): the kernel runs over
// an empty plane and must rank every candidate unreachable, in server-id
// order — exactly the oracle's answer.
TEST(RankPlaneProperty, UnknownOriginRanksIdentically) {
  MetroFixture m{2, 2};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat_map;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    for (const auto& r : m.batches[e]) {
      flat_map.ingest(r, MetroFixture::epoch_time(e));
    }
  }
  const Ranker oracle{flat_map};
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const core::NodeId ghost{888888};
  const auto candidates = m.topo.edge_servers();
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    const auto got = sharded.rank(ghost, candidates, metric, now);
    expect_ranks_identical(got, oracle.rank(ghost, candidates, metric, now),
                           "unknown origin");
    ASSERT_EQ(got.size(), candidates.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].delay_estimate, sim::SimDuration::max());
      EXPECT_EQ(got[i].bandwidth_estimate.bps(), 0.0);
      if (i > 0) {
        EXPECT_LT(got[i - 1].server, got[i].server);
      }
    }
    const std::optional<ServerRank> best =
        sharded.pick(ghost, candidates, metric, now);
    ASSERT_TRUE(best.has_value());
    expect_ranks_identical({*best}, {got.front()}, "unknown origin pick");
  }
}

}  // namespace
}  // namespace intsched::core
