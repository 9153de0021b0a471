#include "intsched/exp/fig4.hpp"

#include <gtest/gtest.h>

#include "intsched/core/scheduler_service.hpp"
#include "intsched/telemetry/int_program.hpp"
#include "intsched/telemetry/probe_agent.hpp"

namespace intsched::exp {
namespace {

struct Fig4Fixture : ::testing::Test {
  sim::Simulator sim;
  Fig4Network network{sim, Fig4Config{}};
};

TEST_F(Fig4Fixture, PaperScale) {
  EXPECT_EQ(network.hosts().size(), 8u);
  EXPECT_EQ(network.switches().size(), 12u);
  EXPECT_EQ(network.topology().node_count(), 20);
}

TEST_F(Fig4Fixture, HostNamesAndIds) {
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(network.hosts()[static_cast<std::size_t>(i)]->id(), core::NodeId{i});
    EXPECT_EQ(network.hosts()[static_cast<std::size_t>(i)]->name(),
              "node" + std::to_string(i + 1));
  }
}

TEST_F(Fig4Fixture, SchedulerIsNodeSix) {
  EXPECT_EQ(network.scheduler_host().name(), "node6");
  EXPECT_EQ(network.scheduler_host().id(), core::NodeId{5});
}

TEST_F(Fig4Fixture, NearestPairsAreThreeSwitchHops) {
  // Intra-pod pairs traverse exactly 3 switches (paper: "nodes that are
  // located three hops away are the nearest node for each other").
  for (const auto& [a, b] : {std::pair{0, 1}, {2, 3}, {4, 5}, {6, 7}}) {
    const auto path = network.topology().path(core::NodeId{a}, core::NodeId{b});
    EXPECT_EQ(path.size(), 5u) << a << "->" << b;  // h + 3 switches + h
  }
}

TEST_F(Fig4Fixture, CrossPodPathsAreLonger) {
  const auto near = network.topology().path_delay(core::NodeId{6}, core::NodeId{7});
  const auto far = network.topology().path_delay(core::NodeId{0}, core::NodeId{6});
  EXPECT_LT(near, far);
}

TEST_F(Fig4Fixture, AllHostPairsReachable) {
  for (core::NodeId a = core::NodeId{0}; a < core::NodeId{8}; ++a) {
    for (core::NodeId b = core::NodeId{0}; b < core::NodeId{8}; ++b) {
      if (a == b) continue;
      EXPECT_FALSE(network.topology().path(a, b).empty());
    }
  }
}

TEST_F(Fig4Fixture, UniformTenMillisecondLinks) {
  // Nearest pair: 4 links of 10 ms each.
  EXPECT_EQ(network.topology().path_delay(core::NodeId{6}, core::NodeId{7}),
            sim::SimDuration::milliseconds(40));
}

TEST_F(Fig4Fixture, IntProgramLoadedEverywhere) {
  for (const p4::P4Switch* sw : network.switches()) {
    EXPECT_NE(dynamic_cast<const telemetry::IntTelemetryProgram*>(
                  sw->program()),
              nullptr)
        << sw->name();
  }
}

TEST_F(Fig4Fixture, ForwardingOnlyWhenIntDisabled) {
  sim::Simulator sim2;
  Fig4Config cfg;
  cfg.enable_int = false;
  Fig4Network plain{sim2, cfg};
  for (const p4::P4Switch* sw : plain.switches()) {
    EXPECT_EQ(dynamic_cast<const telemetry::IntTelemetryProgram*>(
                  sw->program()),
              nullptr);
  }
}

TEST_F(Fig4Fixture, ProbeCoverageTouchesEverySwitch) {
  const auto covered = network.probe_covered_links();
  std::set<core::NodeId> covered_devices;
  for (const auto& [from, to] : covered) {
    covered_devices.insert(from);
    covered_devices.insert(to);
  }
  // The paper assumes probes visit every device at least once.
  for (const p4::P4Switch* sw : network.switches()) {
    EXPECT_TRUE(covered_devices.contains(sw->id())) << sw->name();
  }
}

TEST_F(Fig4Fixture, HostIdsHelper) {
  const auto ids = network.host_ids();
  ASSERT_EQ(ids.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ids[static_cast<std::size_t>(i)], core::NodeId{i});
}

}  // namespace
}  // namespace intsched::exp

// -- Probe-route optimization (paper future work) --

namespace intsched::exp {
namespace {

struct ProbeRoutingFixture : Fig4Fixture {};

TEST_F(ProbeRoutingFixture, DefaultProbingMissesRingLink) {
  const auto covered = network.probe_covered_links();
  const auto all = network.switch_links();
  std::int64_t missing = 0;
  for (const auto& link : all) {
    if (!covered.contains(link)) ++missing;
  }
  EXPECT_GT(missing, 0);  // the coverage gap the planner must close
}

TEST_F(ProbeRoutingFixture, PlanCoversEverySwitchLink) {
  const auto plan = network.plan_probe_routes();
  const core::NodeId sink = network.scheduler_host().id();

  (void)sink;
  std::set<std::pair<core::NodeId, core::NodeId>> covered;
  for (const auto& [host, waypoints] : plan) {
    const auto full = network.probe_route(host, waypoints);
    for (std::size_t i = 0; i + 1 < full.size(); ++i) {
      covered.emplace(full[i], full[i + 1]);
    }
  }
  for (const auto& link : network.switch_links()) {
    EXPECT_TRUE(covered.contains(link))
        << link.first << "->" << link.second;
  }
}

TEST_F(ProbeRoutingFixture, PlanAssignsAtMostTwoWaypoints) {
  // Single waypoints suffice for most links; pairs are needed only for
  // hairpins (e.g. covering the scheduler leaf's uplink direction).
  for (const auto& [host, waypoints] : network.plan_probe_routes()) {
    EXPECT_LE(waypoints.size(), 2u) << "host " << host;
  }
}

TEST_F(ProbeRoutingFixture, SourceRoutedProbeVisitsWaypoint) {
  // Probe from node1 (pod 0) via M3 (s12, id 19): its INT stack must
  // contain s12 even though the shortest path avoids it.
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
  }
  std::vector<core::NodeId> seen_devices;
  stacks[5]->bind_udp(net::kProbePort, [&](const net::Packet& p) {
    for (const auto& e : p.int_stack) seen_devices.push_back(e.device);
  });
  telemetry::ProbeConfig pc;
  pc.waypoints = {core::NodeId{19}};
  telemetry::ProbeAgent agent{*network.hosts()[0],
                              network.scheduler_host().id(), pc};
  agent.send_probe();
  sim.run();
  EXPECT_NE(std::find(seen_devices.begin(), seen_devices.end(), core::NodeId{19}),
            seen_devices.end());
}

TEST_F(ProbeRoutingFixture, OptimizedRoutesLearnTheRingLink) {
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
  }
  core::SchedulerService service{*stacks[5], network.topology(),
                                 core::RankerConfig{},
                                 core::NetworkMapConfig{}};
  const auto plan = network.plan_probe_routes();
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (net::Host* h : network.hosts()) {
    if (h->id() == network.scheduler_host().id()) continue;
    telemetry::ProbeConfig pc;
    if (const auto it = plan.find(h->id()); it != plan.end()) {
      pc.waypoints = it->second;
    }
    agents.push_back(std::make_unique<telemetry::ProbeAgent>(
        *h, network.scheduler_host().id(), pc));
    agents.back()->start();
  }
  sim.run_until(sim::SimTime::seconds(2));

  // Every switch link now has a *measured* delay in the map (the default
  // estimate is exactly 10 ms; measured values include service time).
  const auto view = service.view();
  const core::NetworkMap& map = view->region_snapshot(core::RegionId{0}).map();
  for (const auto& [from, to] : network.switch_links()) {
    EXPECT_GT(map.link_delay(from, to),
              sim::SimDuration::milliseconds(10))
        << from << "->" << to;
  }
  // And the far pod's delay estimate collapses to its true 5-link value.
  const auto ranked = service.rank_for(core::NodeId{0}, core::RankingMetric::kDelay);
  for (const auto& r : ranked) {
    if (r.server == core::NodeId{6} || r.server == core::NodeId{7}) {
      EXPECT_LT(r.delay_estimate, sim::SimDuration::milliseconds(80));
    }
  }
}

}  // namespace
}  // namespace intsched::exp
