// Scheduler service on the Fig. 4 network: probes feed the map, UDP
// queries get ranked responses, and every answer matches the flat
// Algorithm 1 oracle (tests/support) over a map fed the same probes.
#include "intsched/core/scheduler_service.hpp"

#include <gtest/gtest.h>

#include "intsched/core/policies.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/net/fault.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "support/flat_ranker.hpp"

namespace intsched::core {
namespace {

struct ServiceFixture : ::testing::Test {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  std::unique_ptr<SchedulerService> service;
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  /// Flat oracle state: a plain NetworkMap fed every probe the service
  /// receives, through its own collector (see tap_flat_map).
  std::unique_ptr<telemetry::IntCollector> tap;
  NetworkMap flat;

  /// Splits the scheduler host's probe port between the service and a
  /// second collector ingesting into `flat`.
  void tap_flat_map() {
    tap = std::make_unique<telemetry::IntCollector>(network.scheduler_host());
    tap->set_handler([this](const telemetry::ProbeReport& r) {
      flat.ingest(r, stacks[5]->host().local_time());
    });
    stacks[5]->bind_udp(net::kProbePort, [this](const net::Packet& p) {
      service->collector().handle_packet(p);
      tap->handle_packet(p);
    });
  }

  /// rank_for's candidate set: every registered server but the device.
  [[nodiscard]] std::vector<core::NodeId> candidates_for(
      core::NodeId device) const {
    std::vector<core::NodeId> c;
    for (const core::NodeId s : service->edge_servers()) {
      if (s != device) c.push_back(s);
    }
    return c;
  }

  void SetUp() override {
    for (net::Host* h : network.hosts()) {
      stacks.push_back(std::make_unique<transport::HostStack>(*h));
    }
    service = std::make_unique<SchedulerService>(
        *stacks[5], network.topology(), RankerConfig{}, NetworkMapConfig{});
    for (const core::NodeId id : network.host_ids()) {
      service->register_edge_server(id);
    }
    for (net::Host* h : network.hosts()) {
      if (h->id() == network.scheduler_host().id()) continue;
      agents.push_back(std::make_unique<telemetry::ProbeAgent>(
          *h, network.scheduler_host().id()));
      agents.back()->start();
    }
  }
};

TEST_F(ServiceFixture, ProbesBuildFullHostMap) {
  sim.run_until(sim::SimTime::seconds(1));
  const auto view = service->view();
  const NetworkMap& map = view->region_snapshot(core::RegionId{0}).map();
  for (const core::NodeId id : network.host_ids()) {
    EXPECT_TRUE(map.knows_node(id)) << "host " << id;
  }
  // All 12 switches observed.
  for (const p4::P4Switch* sw : network.switches()) {
    EXPECT_TRUE(map.knows_node(sw->id())) << sw->name();
  }
}

TEST_F(ServiceFixture, RankForExcludesRequester) {
  sim.run_until(sim::SimTime::seconds(1));
  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  EXPECT_EQ(ranked.size(), 7u);
  for (const auto& r : ranked) EXPECT_NE(r.server, core::NodeId{0});
}

TEST_F(ServiceFixture, IdleNetworkRanksPodSiblingFirst) {
  sim.run_until(sim::SimTime::seconds(2));
  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].server, core::NodeId{1});  // node2: intra-pod sibling
}

TEST_F(ServiceFixture, QueryOverUdpGetsResponse) {
  SchedulerClient client{*stacks[0], network.scheduler_host().id()};
  sim.run_until(sim::SimTime::seconds(1));
  std::vector<ServerRank> response;
  client.query(RankingMetric::kDelay,
               [&](const CandidateResponse& r) { response = r.ranked; });
  sim.run_until(sim::SimTime::seconds(2));
  ASSERT_EQ(response.size(), 7u);
  EXPECT_EQ(client.responses_received(), 1);
  EXPECT_EQ(service->queries_served(), 1);
  EXPECT_EQ(response[0].server, core::NodeId{1});
}

TEST_F(ServiceFixture, QueryLatencyIsNetworkRoundTrip) {
  SchedulerClient client{*stacks[0], network.scheduler_host().id()};
  sim.run_until(sim::SimTime::seconds(1));
  const sim::SimTime asked = sim.now();
  sim::SimTime answered = sim::SimTime::zero();
  client.query(RankingMetric::kDelay,
               [&](const CandidateResponse&) { answered = sim.now(); });
  sim.run_until(sim::SimTime::seconds(2));
  // node1 <-> node6: 5 links each way = >=100 ms RTT.
  EXPECT_GT(answered - asked, sim::SimDuration::milliseconds(90));
  EXPECT_LT(answered - asked, sim::SimDuration::milliseconds(300));
}

TEST_F(ServiceFixture, RegisterEdgeServerIdempotent) {
  service->register_edge_server(core::NodeId{0});
  service->register_edge_server(core::NodeId{0});
  EXPECT_EQ(service->edge_servers().size(), 8u);
}

TEST_F(ServiceFixture, BandwidthQueryReturnsEstimates) {
  SchedulerClient client{*stacks[2], network.scheduler_host().id()};
  sim.run_until(sim::SimTime::seconds(1));
  std::vector<ServerRank> response;
  client.query(RankingMetric::kBandwidth,
               [&](const CandidateResponse& r) { response = r.ranked; });
  sim.run_until(sim::SimTime::seconds(2));
  ASSERT_FALSE(response.empty());
  for (std::size_t i = 1; i < response.size(); ++i) {
    EXPECT_GE(response[i - 1].bandwidth_estimate.bps(),
              response[i].bandwidth_estimate.bps());
  }
}

TEST_F(ServiceFixture, DirectPolicySelectsImmediately) {
  sim.run_until(sim::SimTime::seconds(1));
  DirectIntPolicy policy{*service, RankingMetric::kDelay};
  std::vector<core::NodeId> chosen;
  policy.select(core::NodeId{5}, 3, [&](std::vector<core::NodeId> s) { chosen = s; });
  ASSERT_EQ(chosen.size(), 3u);  // synchronous: no sim stepping needed
  EXPECT_EQ(policy.kind(), PolicyKind::kIntDelay);
}

TEST_F(ServiceFixture, IntPolicyWrapsClientQuery) {
  SchedulerClient client{*stacks[0], network.scheduler_host().id()};
  IntPolicy policy{client, RankingMetric::kBandwidth};
  EXPECT_EQ(policy.kind(), PolicyKind::kIntBandwidth);
  sim.run_until(sim::SimTime::seconds(1));
  std::vector<core::NodeId> chosen;
  policy.select(core::NodeId{0}, 2, [&](std::vector<core::NodeId> s) { chosen = s; });
  sim.run_until(sim::SimTime::seconds(2));
  EXPECT_EQ(chosen.size(), 2u);
}

TEST_F(ServiceFixture, ProbeReportsCounted) {
  sim.run_until(sim::SimTime::seconds(1));
  EXPECT_GT(service->collector().probes_received(), 50);
  EXPECT_EQ(service->collector().malformed(), 0);
  EXPECT_EQ(service->map().reports_ingested(),
            service->collector().probes_received());
}

// The service ranks through its one-region map's published view; the
// answers must be exactly the flat oracle's over the same probes.
TEST_F(ServiceFixture, RankForMatchesFlatOracle) {
  tap_flat_map();
  sim.run_until(sim::SimTime::seconds(2));
  const Ranker oracle{flat};
  for (const core::NodeId device : {core::NodeId{0}, core::NodeId{3}}) {
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      const auto got = service->rank_for(device, metric);
      const auto want =
          oracle.rank(device, candidates_for(device), metric, sim.now());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].server, want[i].server) << "rank " << i;
        EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate);
        EXPECT_EQ(got[i].bandwidth_estimate.bps(),
                  want[i].bandwidth_estimate.bps());
        EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay);
      }
    }
  }
  EXPECT_EQ(service->map().reports_ingested(), flat.reports_ingested());
}

// Probes traverse the Fig. 4 network while armed link flaps cut and
// restore links mid-run. The service's lazily published view must never
// diverge from the oracle's fresh Dijkstra over the same probes.
TEST_F(ServiceFixture, Fig4LinkFlapsMatchFlatOracle) {
  tap_flat_map();
  net::FaultPlanConfig fault_cfg;
  fault_cfg.seed = 42;
  fault_cfg.link_flaps.push_back(net::LinkFlapSpec{
      core::NodeId{0}, core::NodeId{8}, sim::SimTime::seconds(2), sim::SimTime::seconds(5)});
  fault_cfg.link_flaps.push_back(net::LinkFlapSpec{
      core::NodeId{4}, core::NodeId{10}, sim::SimTime::seconds(3), sim::SimTime::seconds(7)});
  net::FaultPlan plan{fault_cfg};
  plan.arm(network.topology());

  const Ranker oracle{flat};
  for (int second = 1; second <= 9; ++second) {
    sim.run_until(sim::SimTime::seconds(second));
    for (const core::NodeId device :
         {core::NodeId{0}, core::NodeId{2}, core::NodeId{4}, core::NodeId{6}}) {
      const auto got = service->rank_for(device, RankingMetric::kDelay);
      const auto want = oracle.rank(device, candidates_for(device),
                                    RankingMetric::kDelay, sim.now());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].server, want[i].server)
            << "t=" << second << "s rank " << i;
        EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate);
      }
    }
  }
}

// -- Graceful degradation under telemetry loss --

/// Same wiring as ServiceFixture but with the staleness window enabled
/// and a fault plan available for the individual tests to arm.
struct DegradedServiceFixture : ::testing::Test {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  std::unique_ptr<SchedulerService> service;
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;

  void SetUp() override {
    for (net::Host* h : network.hosts()) {
      stacks.push_back(std::make_unique<transport::HostStack>(*h));
    }
    NetworkMapConfig map_cfg;
    map_cfg.link_staleness = sim::SimDuration::milliseconds(400);
    service = std::make_unique<SchedulerService>(
        *stacks[5], network.topology(), RankerConfig{}, map_cfg);
    for (const core::NodeId id : network.host_ids()) {
      service->register_edge_server(id);
    }
    for (net::Host* h : network.hosts()) {
      if (h->id() == network.scheduler_host().id()) continue;
      agents.push_back(std::make_unique<telemetry::ProbeAgent>(
          *h, network.scheduler_host().id()));
      agents.back()->start();
    }
  }
};

TEST_F(DegradedServiceFixture, StalePathIsDeprioritizedNotDropped) {
  // Warm up, then cut host 0's access link for good: server 0's telemetry
  // goes stale while everyone else stays fresh.
  net::FaultPlanConfig cfg;
  cfg.link_flaps.push_back(net::LinkFlapSpec{
      core::NodeId{0}, core::NodeId{8}, sim::SimTime::seconds(2), sim::SimTime::zero()});
  net::FaultPlan plan{cfg};
  plan.arm(network.topology());
  sim.run_until(sim::SimTime::seconds(4));

  // Query from host 2 (unaffected): all 7 candidates still present.
  const auto ranked = service->rank_for(core::NodeId{2}, RankingMetric::kDelay);
  ASSERT_EQ(ranked.size(), 7u);
  EXPECT_EQ(ranked.back().server, core::NodeId{0});
  EXPECT_TRUE(ranked.back().stale);
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
    EXPECT_FALSE(ranked[i].stale) << "server " << ranked[i].server;
  }
  EXPECT_GT(service->stale_lookups(), 0);
  EXPECT_GT(service->fallback_decisions(), 0);
}

TEST_F(DegradedServiceFixture, AllStaleFallsBackToNearestOrdering) {
  sim.run_until(sim::SimTime::seconds(2));
  for (auto& a : agents) a->stop();  // total telemetry blackout
  sim.run_until(sim::SimTime::seconds(4));  // well past the 400 ms window

  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  ASSERT_EQ(ranked.size(), 7u);
  for (const auto& r : ranked) EXPECT_TRUE(r.stale);
  // Nearest-style fallback: intra-pod sibling first, by topology alone.
  EXPECT_EQ(ranked[0].server, core::NodeId{1});
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i].baseline_delay, ranked[i - 1].baseline_delay);
  }
}

TEST_F(DegradedServiceFixture, QueryDuringBlackoutStillWellFormed) {
  sim.run_until(sim::SimTime::seconds(2));
  for (auto& a : agents) a->stop();
  sim.run_until(sim::SimTime::seconds(4));

  SchedulerClient client{*stacks[0], network.scheduler_host().id()};
  std::vector<ServerRank> response;
  client.query(RankingMetric::kDelay,
               [&](const CandidateResponse& r) { response = r.ranked; });
  sim.run_until(sim::SimTime::seconds(5));
  ASSERT_EQ(response.size(), 7u);
  EXPECT_EQ(response[0].server, core::NodeId{1});
  EXPECT_EQ(client.responses_received(), 1);
}

TEST_F(DegradedServiceFixture, FreshTelemetryMeansNoFallbacks) {
  sim.run_until(sim::SimTime::seconds(3));
  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  ASSERT_EQ(ranked.size(), 7u);
  for (const auto& r : ranked) EXPECT_FALSE(r.stale);
  EXPECT_EQ(service->fallback_decisions(), 0);
  EXPECT_EQ(ranked[0].server, core::NodeId{1});
}

}  // namespace
}  // namespace intsched::core

// -- Lifetime safety --

#include "intsched/edge/edge_server.hpp"

namespace intsched::core {
namespace {

TEST_F(ServiceFixture, ClientDestroyedWithPendingQueryIsSafe) {
  {
    SchedulerClient client{*stacks[0], network.scheduler_host().id()};
    client.query(RankingMetric::kDelay, [](const CandidateResponse&) {
      FAIL() << "response after client death must not fire";
    });
    // Destroy immediately: the request and its retry timer are in flight.
  }
  sim.run_until(sim::SimTime::seconds(15));  // past several retry rounds
}

TEST_F(ServiceFixture, ServerDestroyedMidExecutionIsSafe) {
  intsched::edge::MetricsCollector metrics;
  {
    intsched::edge::EdgeServer server{*stacks[1], metrics};
    server.enable_load_reports(network.scheduler_host().id());
    sim.run_until(sim::SimTime::milliseconds(600));
  }
  sim.run_until(sim::SimTime::seconds(5));  // pending timers must no-op
}

}  // namespace
}  // namespace intsched::core
