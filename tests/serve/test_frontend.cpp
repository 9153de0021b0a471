// serve::ServeFrontend: the wire-to-wire serving path must agree
// field-exactly (and byte-exactly on re-serve) with calling the
// underlying ShardedNetworkMap directly over a seeded metro topology —
// the PR-6 agreement-test style, now through the binary protocol — and
// the warm decision path must be allocation-free, enforced by a global
// operator-new counter (the runtime check behind the hotpath-alloc lint).
#include "intsched/serve/frontend.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/serve/wire.hpp"
#include "support/flat_ranker.hpp"

// -- global allocation counter ------------------------------------------
// Counts every operator-new in the test binary. Single-threaded tests
// only read the delta around a warm serve loop, so a plain counter is
// enough. Frees are deliberately not counted: the contract under test is
// "no allocation", not "balanced allocation".

namespace {
std::int64_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t n) {
  ++g_news;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

// Out of line: GCC's -Wmismatched-new-delete otherwise reports the free()
// below, once inlined next to a `new`, as freeing memory from operator
// new — which, replaced above, is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace intsched::serve {
namespace {

using core::NodeId;
using core::RankingMetric;
using core::ServerRank;

struct MetroFixture {
  net::GenTopology topo;
  exp::MetroTelemetryGen gen;
  std::vector<std::vector<telemetry::ProbeReport>> batches;

  explicit MetroFixture(std::int32_t pods, std::int32_t epochs,
                        std::uint64_t seed = 42)
      : topo{net::TopologyGen::ring_of_pods([&] {
          net::MetroConfig cfg;
          cfg.seed = seed;
          cfg.pods = pods;
          return cfg;
        }())},
        gen{topo, exp::MetroTelemetryConfig{.seed = seed}} {
    batches.push_back(gen.full_sweep());
    const auto refresh = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(topo.links.size()) / 4);
    for (std::int32_t e = 1; e < epochs; ++e) {
      batches.push_back(gen.refresh(refresh));
    }
  }

  [[nodiscard]] static sim::SimTime epoch_time(std::size_t e) {
    return sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
  }
};

/// Drives one request through the full wire path and returns the decoded
/// response (asserting the frames were well-formed).
RankResponse serve_one(const ServeFrontend& frontend, ServeContext& ctx,
                       const RankRequest& req, sim::SimTime now,
                       std::vector<std::byte>* raw = nullptr) {
  std::array<std::byte, kMaxFrameSize> req_buf{};
  std::array<std::byte, kMaxFrameSize> resp_buf{};
  const std::size_t req_len =
      encode_rank_request(req, req_buf.data(), req_buf.size());
  EXPECT_GT(req_len, 0u);
  std::size_t resp_len = 0;
  EXPECT_TRUE(frontend.serve(ctx, req_buf.data(), req_len, resp_buf.data(),
                             resp_buf.size(), resp_len, now));
  RankResponse resp;
  EXPECT_EQ(decode_rank_response(resp_buf.data(), resp_len, resp),
            WireError::kOk);
  if (raw != nullptr) {
    raw->assign(resp_buf.data(), resp_buf.data() + resp_len);
  }
  return resp;
}

void expect_entry_matches_rank(const RankResponseEntry& e,
                               const ServerRank& r, const char* what) {
  EXPECT_EQ(e.server, r.server) << what;
  EXPECT_EQ(e.stale, r.stale) << what;
  EXPECT_EQ(e.delay_estimate, r.delay_estimate) << what;
  EXPECT_EQ(e.baseline_delay, r.baseline_delay) << what;
  EXPECT_EQ(e.bandwidth_estimate.bps(), r.bandwidth_estimate.bps()) << what;
}

TEST(ServeFrontendTest, AgreesWithDirectPickAndRankEveryEpoch) {
  MetroFixture m{3, 6};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);
  EXPECT_EQ(frontend.registered(), m.topo.edge_servers());

  ServeContext ctx;
  std::uint64_t query = 0;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    const sim::SimTime now = MetroFixture::epoch_time(e);
    map.ingest_batch(m.batches[e], now);
    for (const NodeId origin : m.topo.hosts()) {
      // Top-1 delay request (the pick path) vs direct map.pick.
      RankRequest req;
      req.query_id = ++query;
      req.origin = origin;
      req.metric = RankingMetric::kDelay;
      req.max_results = 1;
      const RankResponse got = serve_one(frontend, ctx, req, now);
      EXPECT_EQ(got.query_id, req.query_id);
      EXPECT_EQ(got.status, ServeStatus::kOk);
      EXPECT_EQ(got.epoch, map.view()->epoch());
      const auto want = map.pick(origin, m.topo.edge_servers(),
                                 RankingMetric::kDelay, now);
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(got.entry_count, 1);
      expect_entry_matches_rank(got.entries[0], *want, "pick path");

      // Top-k over both metrics (the rank path) vs direct map.rank.
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        req.query_id = ++query;
        req.metric = metric;
        req.max_results = 5;
        const RankResponse ranked_resp = serve_one(frontend, ctx, req, now);
        EXPECT_EQ(ranked_resp.status, ServeStatus::kOk);
        const std::vector<ServerRank> want_ranked =
            map.rank(origin, m.topo.edge_servers(), metric, now);
        ASSERT_EQ(ranked_resp.entry_count,
                  std::min<std::size_t>(5, want_ranked.size()));
        for (std::size_t i = 0; i < ranked_resp.entry_count; ++i) {
          expect_entry_matches_rank(ranked_resp.entries[i], want_ranked[i],
                                    "rank path");
        }
      }
    }
  }
  EXPECT_EQ(ctx.malformed, 0);
  EXPECT_EQ(ctx.unknown_origin, 0);
  EXPECT_EQ(ctx.no_candidates, 0);
}

// Border-gateway origins through the wire: every region's border hosts
// get kOk answers equal to the flat oracle, on the pick path (top-1
// delay) and the top-k path — and a probe report with a forged INT
// device id neither turns that report's destination host into a border
// nor changes what it is served.
TEST(ServeFrontendTest, BorderOriginsServeLikeTheFlatOracle) {
  MetroFixture m{4, 1, 7};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  core::NetworkMap flat_map;
  const sim::SimTime now = MetroFixture::epoch_time(0);
  map.ingest_batch(m.batches[0], now);
  for (const auto& r : m.batches[0]) flat_map.ingest(r, now);
  ServeFrontend frontend{map};
  const std::vector<NodeId> servers = m.topo.edge_servers();
  for (const NodeId s : servers) frontend.register_server(s);

  ServeContext ctx;
  std::uint64_t query = 0;
  const auto expect_serves_like_oracle = [&](NodeId origin,
                                             const char* what) {
    const core::Ranker oracle{flat_map};
    RankRequest req;
    req.origin = origin;
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      const std::vector<ServerRank> want =
          oracle.rank(origin, servers, metric, now);
      for (const std::uint8_t k : {std::uint8_t{1}, std::uint8_t{8}}) {
        req.query_id = ++query;
        req.metric = metric;
        req.max_results = k;
        const RankResponse got = serve_one(frontend, ctx, req, now);
        ASSERT_EQ(got.status, ServeStatus::kOk) << what;
        ASSERT_EQ(got.entry_count, std::min<std::size_t>(k, want.size()))
            << what;
        for (std::size_t i = 0; i < got.entry_count; ++i) {
          expect_entry_matches_rank(got.entries[i], want[i], what);
        }
      }
    }
  };

  const auto view = map.view();
  for (std::int32_t r = 0; r < view->region_count().value(); ++r) {
    for (const NodeId border : view->borders_of(core::RegionId{r})) {
      expect_serves_like_oracle(border, "border origin");
    }
  }

  // A forged INT device id is rejected at ingest: counted, no summary
  // link, the destination stays a non-border, and it serves exactly like
  // the oracle fed the report with the forged id invalidated.
  telemetry::ProbeReport forged = m.batches[0].front();
  ASSERT_FALSE(forged.entries.empty());
  forged.entries.back().device = NodeId{5000000};
  const std::int64_t summary_links = view->summary_map().known_link_count();
  map.ingest(forged, now);
  telemetry::ProbeReport oracle_report = forged;
  oracle_report.entries.back().device = core::kInvalidNode;
  flat_map.ingest(oracle_report, now);
  EXPECT_GT(map.rejected_entries(), 0);
  EXPECT_EQ(map.view()->summary_map().known_link_count(), summary_links);
  const std::vector<NodeId>& dst_borders =
      map.view()->borders_of(map.region_of(forged.dst));
  EXPECT_FALSE(std::binary_search(dst_borders.begin(), dst_borders.end(),
                                  forged.dst));
  expect_serves_like_oracle(forged.dst, "forged-entry destination");
  EXPECT_EQ(ctx.malformed, 0);
}

TEST(ServeFrontendTest, ReServeIsByteIdentical) {
  MetroFixture m{2, 3};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  ServeContext ctx_a;
  ServeContext ctx_b;
  std::uint64_t query = 0;
  for (const NodeId origin : m.topo.hosts()) {
    for (const std::uint8_t k : {std::uint8_t{1}, std::uint8_t{4}}) {
      RankRequest req;
      req.query_id = ++query;
      req.origin = origin;
      req.max_results = k;
      std::vector<std::byte> first;
      std::vector<std::byte> second;
      serve_one(frontend, ctx_a, req, now, &first);
      // A fresh context (cold scratch) must produce the same bytes.
      serve_one(frontend, ctx_b, req, now, &second);
      EXPECT_EQ(first, second) << "origin " << origin;
    }
  }
}

TEST(ServeFrontendTest, ExplicitCandidateSubsetMatchesDirectRank) {
  MetroFixture m{3, 4};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  ServeFrontend frontend{map};
  const std::vector<NodeId> servers = m.topo.edge_servers();
  for (const NodeId s : servers) frontend.register_server(s);

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  ServeContext ctx;
  // Every other server, plus one bogus id the frontend must filter out.
  std::vector<NodeId> subset;
  for (std::size_t i = 0; i < servers.size(); i += 2) {
    subset.push_back(servers[i]);
  }
  RankRequest req;
  req.origin = m.topo.hosts()[3];
  req.max_results = static_cast<std::uint8_t>(
      std::min<std::size_t>(subset.size() + 1, kMaxResponseEntries));
  req.candidate_count = static_cast<std::uint16_t>(subset.size() + 1);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    req.candidates[i] = subset[i];
  }
  req.candidates[subset.size()] = NodeId{999999};  // never registered

  const RankResponse got = serve_one(frontend, ctx, req, now);
  EXPECT_EQ(got.status, ServeStatus::kOk);
  const std::vector<ServerRank> want =
      map.rank(req.origin, subset, RankingMetric::kDelay, now);
  ASSERT_EQ(got.entry_count,
            std::min<std::size_t>(req.max_results, want.size()));
  for (std::size_t i = 0; i < got.entry_count; ++i) {
    expect_entry_matches_rank(got.entries[i], want[i], "subset");
  }
}

TEST(ServeFrontendTest, StatusesAndMalformedInputs) {
  MetroFixture m{2, 2};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  map.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);
  const sim::SimTime now = MetroFixture::epoch_time(1);
  ServeContext ctx;

  // Invalid origin id -> kUnknownOrigin, still a well-formed response.
  RankRequest req;
  req.query_id = 1;
  req.origin = core::kInvalidNode;
  RankResponse resp = serve_one(frontend, ctx, req, now);
  EXPECT_EQ(resp.status, ServeStatus::kUnknownOrigin);
  EXPECT_EQ(resp.entry_count, 0);
  EXPECT_EQ(ctx.unknown_origin, 1);

  // Only unregistered candidates -> kNoCandidates.
  req.origin = m.topo.hosts()[0];
  req.candidate_count = 2;
  req.candidates[0] = NodeId{777777};
  req.candidates[1] = NodeId{888888};
  resp = serve_one(frontend, ctx, req, now);
  EXPECT_EQ(resp.status, ServeStatus::kNoCandidates);
  EXPECT_EQ(resp.entry_count, 0);
  EXPECT_EQ(ctx.no_candidates, 1);

  // Malformed request -> serve() returns false, counts it, writes no
  // response bytes.
  std::array<std::byte, kMaxFrameSize> garbage{};
  garbage.fill(std::byte{0xAB});
  std::array<std::byte, kMaxFrameSize> resp_buf{};
  std::size_t resp_len = 123;
  EXPECT_FALSE(frontend.serve(ctx, garbage.data(), 40, resp_buf.data(),
                              resp_buf.size(), resp_len, now));
  EXPECT_EQ(resp_len, 0u);
  EXPECT_EQ(ctx.malformed, 1);
  EXPECT_EQ(ctx.served, 2);

  // Registry introspection.
  core::RegionId region = core::kNoRegion;
  EXPECT_TRUE(frontend.is_registered(m.topo.edge_servers()[0], &region));
  EXPECT_NE(region, core::kNoRegion);
  EXPECT_FALSE(frontend.is_registered(NodeId{777777}));
}

TEST(ServeFrontendTest, WarmDecisionPathIsAllocationFree) {
  MetroFixture m{3, 3};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::vector<NodeId> origins = m.topo.hosts();
  ServeContext ctx;
  std::array<std::byte, kMaxFrameSize> req_buf{};
  std::array<std::byte, kMaxFrameSize> resp_buf{};

  const auto serve_round = [&](std::uint64_t salt) {
    std::size_t good = 0;
    for (std::size_t i = 0; i < origins.size(); ++i) {
      RankRequest req;
      req.query_id = salt * 1000 + i;
      req.origin = origins[i];
      // Alternate the pick path (top-1 delay) and the rank path (top-4),
      // so both stay warm and both are measured.
      req.max_results = (i % 2 == 0) ? std::uint8_t{1} : std::uint8_t{4};
      const std::size_t req_len =
          encode_rank_request(req, req_buf.data(), req_buf.size());
      std::size_t resp_len = 0;
      if (frontend.serve(ctx, req_buf.data(), req_len, resp_buf.data(),
                         resp_buf.size(), resp_len, now) &&
          resp_len != 0) {
        ++good;
      }
    }
    return good;
  };

  // Warm-up: first touch of every origin fills the view's per-origin
  // query contexts and grows the scratch buffers to their steady size.
  ASSERT_EQ(serve_round(1), origins.size());
  serve_round(2);

  const std::int64_t before = g_news;
  std::size_t good = 0;
  for (std::uint64_t round = 0; round < 10; ++round) {
    good += serve_round(3 + round);
  }
  const std::int64_t after = g_news;
  EXPECT_EQ(good, origins.size() * 10);
  EXPECT_EQ(after - before, 0)
      << "warm serve path allocated " << (after - before) << " time(s)";
}

}  // namespace
}  // namespace intsched::serve
