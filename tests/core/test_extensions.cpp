// Extension features from the paper's §VI future work: compute-aware
// ranking via load reports, and heterogeneous server capabilities.
#include <gtest/gtest.h>

#include "intsched/core/policies.hpp"
#include "intsched/edge/edge_server.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/telemetry/probe_agent.hpp"

namespace intsched::core {
namespace {

struct ExtensionFixture : ::testing::Test {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  std::unique_ptr<SchedulerService> service;
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;

  void make_service(SchedulerConfig cfg = {}) {
    for (net::Host* h : network.hosts()) {
      stacks.push_back(std::make_unique<transport::HostStack>(*h));
    }
    service = std::make_unique<SchedulerService>(
        *stacks[5], network.topology(),
        RankerConfig{}, NetworkMapConfig{}, cfg);
    for (net::Host* h : network.hosts()) {
      if (h->id() == network.scheduler_host().id()) continue;
      agents.push_back(std::make_unique<telemetry::ProbeAgent>(
          *h, network.scheduler_host().id()));
      agents.back()->start();
    }
  }
};

TEST_F(ExtensionFixture, CapabilityFilterExcludesUnqualified) {
  make_service();
  service->register_edge_server(core::NodeId{1}, {"gpu"});
  service->register_edge_server(core::NodeId{2}, {"gpu", "keras"});
  service->register_edge_server(core::NodeId{3}, {});
  sim.run_until(sim::SimTime::seconds(1));

  const auto any = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  EXPECT_EQ(any.size(), 3u);

  const auto gpu = service->rank_for(core::NodeId{0}, RankingMetric::kDelay, {"gpu"});
  ASSERT_EQ(gpu.size(), 2u);
  for (const auto& r : gpu) EXPECT_NE(r.server, core::NodeId{3});

  const auto both =
      service->rank_for(core::NodeId{0}, RankingMetric::kDelay, {"gpu", "keras"});
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].server, core::NodeId{2});

  EXPECT_TRUE(
      service->rank_for(core::NodeId{0}, RankingMetric::kDelay, {"tpu"}).empty());
}

TEST_F(ExtensionFixture, ReRegisteringUpdatesCapabilities) {
  make_service();
  service->register_edge_server(core::NodeId{1}, {});
  service->register_edge_server(core::NodeId{1}, {"gpu"});
  EXPECT_EQ(service->edge_servers().size(), 1u);
  sim.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(service->rank_for(core::NodeId{0}, RankingMetric::kDelay, {"gpu"}).size(),
            1u);
}

TEST_F(ExtensionFixture, LoadReportsTracked) {
  SchedulerConfig cfg;
  cfg.compute_aware = true;
  make_service(cfg);
  for (const core::NodeId id : network.host_ids()) {
    service->register_edge_server(id);
  }
  edge::MetricsCollector metrics;
  edge::EdgeServer server{*stacks[1], metrics};
  server.enable_load_reports(network.scheduler_host().id());
  sim.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(service->server_load(core::NodeId{1}), 0);  // idle server reports zero
}

TEST_F(ExtensionFixture, StaleLoadReportsExpire) {
  SchedulerConfig cfg;
  cfg.compute_aware = true;
  cfg.load_staleness = sim::SimDuration::seconds(3);
  make_service(cfg);
  service->register_edge_server(core::NodeId{1});
  edge::MetricsCollector metrics;
  edge::EdgeServer server{*stacks[1], metrics};
  server.enable_load_reports(network.scheduler_host().id(),
                             sim::SimDuration::milliseconds(500));
  sim.run_until(sim::SimTime::seconds(1));
  server.disable_load_reports();
  sim.run_until(sim::SimTime::seconds(10));
  EXPECT_EQ(service->server_load(core::NodeId{1}), 0);
}

TEST_F(ExtensionFixture, ComputeAwareDemotesLoadedServer) {
  SchedulerConfig cfg;
  cfg.compute_aware = true;
  cfg.load_penalty = sim::SimDuration::milliseconds(500);
  make_service(cfg);
  for (const core::NodeId id : network.host_ids()) {
    service->register_edge_server(id);
  }
  sim.run_until(sim::SimTime::seconds(1));

  // Inject a heavy load report for node2 (node1's nearest).
  LoadReportMessage report;
  report.server = core::NodeId{1};
  report.outstanding_tasks = 10;
  auto msg = std::make_shared<LoadReportMessage>(report);
  stacks[1]->send_datagram(network.scheduler_host().id(), net::kTaskPort,
                           net::kSchedulerPort, 62, std::move(msg));
  sim.run_until(sim.now() + sim::SimDuration::milliseconds(200));

  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  ASSERT_FALSE(ranked.empty());
  EXPECT_NE(ranked[0].server, core::NodeId{1});  // 10 x 500 ms penalty demotes node2
  for (const auto& r : ranked) {
    if (r.server == core::NodeId{1}) {
      EXPECT_EQ(r.outstanding_tasks, 10);
    }
  }
}

TEST_F(ExtensionFixture, ComputeAwareOffIgnoresLoad) {
  make_service();  // compute_aware = false
  for (const core::NodeId id : network.host_ids()) {
    service->register_edge_server(id);
  }
  sim.run_until(sim::SimTime::seconds(1));
  LoadReportMessage report;
  report.server = core::NodeId{1};
  report.outstanding_tasks = 50;
  auto msg = std::make_shared<LoadReportMessage>(report);
  stacks[1]->send_datagram(network.scheduler_host().id(), net::kTaskPort,
                           net::kSchedulerPort, 62, std::move(msg));
  sim.run_until(sim.now() + sim::SimDuration::milliseconds(200));
  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kDelay);
  EXPECT_EQ(ranked[0].server, core::NodeId{1});  // load is reported but not acted on
  EXPECT_EQ(ranked[0].outstanding_tasks, 50);
}

TEST_F(ExtensionFixture, ComputeAwareBandwidthSharesCapacity) {
  SchedulerConfig cfg;
  cfg.compute_aware = true;
  make_service(cfg);
  for (const core::NodeId id : network.host_ids()) {
    service->register_edge_server(id);
  }
  sim.run_until(sim::SimTime::seconds(1));
  LoadReportMessage report;
  report.server = core::NodeId{1};
  report.outstanding_tasks = 4;
  auto msg = std::make_shared<LoadReportMessage>(report);
  stacks[1]->send_datagram(network.scheduler_host().id(), net::kTaskPort,
                           net::kSchedulerPort, 62, std::move(msg));
  sim.run_until(sim.now() + sim::SimDuration::milliseconds(200));
  const auto ranked = service->rank_for(core::NodeId{0}, RankingMetric::kBandwidth);
  // node2 divides its ~20 Mbps by 5; everyone else keeps theirs.
  EXPECT_NE(ranked[0].server, core::NodeId{1});
}

TEST_F(ExtensionFixture, PoliciesRespectRequirements) {
  make_service();
  std::unordered_map<core::NodeId, std::vector<std::string>> caps;
  caps[core::NodeId{2}] = {"gpu"};
  caps[core::NodeId{6}] = {"gpu"};
  NearestPolicy nearest{network.topology(), network.host_ids(), caps};
  std::vector<core::NodeId> chosen;
  nearest.select(core::NodeId{0}, 2, {"gpu"},
                 [&](std::vector<core::NodeId> s) { chosen = s; });
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], core::NodeId{2});  // nearest gpu-capable
  EXPECT_EQ(chosen[1], core::NodeId{6});

  RandomPolicy random{network.host_ids(), sim::Rng{3}, caps};
  for (int trial = 0; trial < 30; ++trial) {
    random.select(core::NodeId{0}, 1, {"gpu"}, [&](std::vector<core::NodeId> s) {
      ASSERT_EQ(s.size(), 1u);
      EXPECT_TRUE(s[0] == core::NodeId{2} || s[0] == core::NodeId{6});
    });
  }
}

TEST_F(ExtensionFixture, RequirementsTravelOverUdpQueries) {
  make_service();
  service->register_edge_server(core::NodeId{1}, {"gpu"});
  service->register_edge_server(core::NodeId{2}, {});
  sim.run_until(sim::SimTime::seconds(1));
  SchedulerClient client{*stacks[0], network.scheduler_host().id()};
  std::vector<ServerRank> response;
  client.query(
      RankingMetric::kDelay,
      [&](const CandidateResponse& r) { response = r.ranked; }, {"gpu"});
  sim.run_until(sim.now() + sim::SimDuration::seconds(1));
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0].server, core::NodeId{1});
}

}  // namespace
}  // namespace intsched::core
