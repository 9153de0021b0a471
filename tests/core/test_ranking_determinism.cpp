// Ranking tie-break determinism: equal-metric candidates must rank in the
// documented stable order (ascending server id) no matter how the
// NetworkMap's hash tables happened to be populated or rehashed, and no
// matter the order the candidate list arrives in. This is the contract
// that keeps same-seed experiment reports byte-identical.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/network_map.hpp"
#include "intsched/core/ranking.hpp"
#include "support/flat_ranker.hpp"

namespace intsched::core {
namespace {

sim::SimDuration ms(int v) { return sim::SimDuration::milliseconds(v); }
sim::SimTime at_ms(int v) { return sim::SimTime::at(ms(v)); }

std::vector<core::NodeId> nids(std::initializer_list<std::int32_t> raw) {
  std::vector<core::NodeId> out;
  for (const std::int32_t v : raw) out.emplace_back(v);
  return out;
}

net::IntStackEntry entry(core::NodeId device, std::int32_t in_port,
                         std::int32_t out_port, std::int64_t q,
                         sim::SimDuration latency) {
  net::IntStackEntry e;
  e.device = device;
  e.ingress_port = in_port;
  e.egress_port = out_port;
  e.max_queue_pkts = q;
  e.device_max_queue_pkts = q;
  e.ingress_link_latency = latency;
  return e;
}

/// One probe teaching the map the path: host 0 -> switch 10 -> `server`.
telemetry::ProbeReport star_probe(core::NodeId server, std::int64_t q) {
  telemetry::ProbeReport r;
  r.src = core::NodeId{0};
  r.dst = server;
  r.entries = {entry(core::NodeId{10}, 0, server.value(), q, ms(10))};
  r.final_link_latency = ms(10);
  return r;
}

/// Star topology with identical spokes: every server in `servers` sits one
/// identical hop behind switch 10, so all delay and bandwidth estimates
/// tie exactly. Probes are ingested in the order given, which controls the
/// hash maps' insertion history.
NetworkMap make_star(const std::vector<core::NodeId>& servers,
                     std::int64_t q = 0) {
  NetworkMap map;
  for (const core::NodeId s : servers) map.ingest(star_probe(s, q), at_ms(0));
  return map;
}

std::vector<core::NodeId> ranked_ids(const NetworkMap& map,
                                    const std::vector<core::NodeId>& cands,
                                    RankingMetric metric) {
  Ranker ranker{map};
  std::vector<core::NodeId> ids;
  for (const ServerRank& r : ranker.rank(core::NodeId{0}, cands, metric, at_ms(10))) {
    ids.push_back(r.server);
  }
  return ids;
}

TEST(RankingDeterminismTest, EqualDelayTiesBreakAscendingByServerId) {
  const std::vector<core::NodeId> servers = nids({5, 3, 4, 1, 2});
  NetworkMap map = make_star(servers);
  EXPECT_EQ(ranked_ids(map, servers, RankingMetric::kDelay),
            nids({1, 2, 3, 4, 5}));
}

TEST(RankingDeterminismTest, EqualBandwidthTiesBreakAscendingByServerId) {
  const std::vector<core::NodeId> servers = nids({4, 2, 5, 1, 3});
  NetworkMap map = make_star(servers, 3);  // equal congestion everywhere
  EXPECT_EQ(ranked_ids(map, servers, RankingMetric::kBandwidth),
            nids({1, 2, 3, 4, 5}));
}

TEST(RankingDeterminismTest, OrderIndependentOfCandidateListOrder) {
  const std::vector<core::NodeId> servers = nids({1, 2, 3, 4, 5});
  NetworkMap map = make_star(servers);
  const std::vector<core::NodeId> reference =
      ranked_ids(map, servers, RankingMetric::kDelay);
  // Every permutation of a 5-element candidate list must rank identically.
  std::vector<core::NodeId> perm = servers;
  do {
    EXPECT_EQ(ranked_ids(map, perm, RankingMetric::kDelay), reference);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(RankingDeterminismTest, OrderIndependentOfIngestInsertionOrder) {
  // Same topology taught in opposite probe orders: the hash maps end up
  // with different bucket layouts, but ranking must not notice.
  std::vector<core::NodeId> fwd = nids({1, 2, 3, 4, 5});
  std::vector<core::NodeId> rev = nids({5, 4, 3, 2, 1});
  NetworkMap a = make_star(fwd);
  NetworkMap b = make_star(rev);
  EXPECT_EQ(ranked_ids(a, fwd, RankingMetric::kDelay),
            ranked_ids(b, fwd, RankingMetric::kDelay));
  EXPECT_EQ(ranked_ids(a, fwd, RankingMetric::kBandwidth),
            ranked_ids(b, fwd, RankingMetric::kBandwidth));
}

TEST(RankingDeterminismTest, OrderSurvivesRehash) {
  const std::vector<core::NodeId> servers = nids({5, 3, 4, 1, 2});
  NetworkMap map = make_star(servers);
  const std::vector<core::NodeId> before =
      ranked_ids(map, servers, RankingMetric::kDelay);
  // Flood the map with unrelated spokes so its unordered_maps grow well
  // past their initial bucket counts and rehash; none of the new nodes is
  // on a candidate path, so the ranking inputs are unchanged.
  for (core::NodeId extra = core::NodeId{100}; extra < core::NodeId{400}; ++extra) {
    map.ingest(star_probe(extra, 0), at_ms(0));
  }
  EXPECT_EQ(ranked_ids(map, servers, RankingMetric::kDelay), before);
  EXPECT_EQ(before, nids({1, 2, 3, 4, 5}));
}

TEST(RankingDeterminismTest, UnreachableCandidatesTieBreakToo) {
  // Unreachable servers all tie at delay = max(); they must still appear
  // in ascending-id order after the reachable ones.
  NetworkMap map = make_star({core::NodeId{1}, core::NodeId{2}});
  const std::vector<core::NodeId> cands = nids({9, 2, 8, 1, 7});
  EXPECT_EQ(ranked_ids(map, cands, RankingMetric::kDelay),
            nids({1, 2, 7, 8, 9}));
}

}  // namespace
}  // namespace intsched::core
