// Full-system integration: constructed congestion scenarios where the
// network-aware scheduler must demonstrably beat the nearest baseline,
// plus system-level invariants of a complete experiment run.
#include <gtest/gtest.h>

#include "intsched/core/scheduler_service.hpp"
#include "intsched/exp/experiment.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/iperf.hpp"

namespace intsched {
namespace {

/// Deterministic scenario: pod 3 (nodes 7/8) is saturated by an intra-pod
/// flood while pod 1 stays clean. From node1's viewpoint, pods 1 and 3 are
/// equidistant, so the scheduler must rank the clean pod's servers above
/// the congested pod's for both metrics. (Congesting node1's *own* nearest
/// necessarily taints the mid-switch shared by all of node1's paths —
/// device-level queue registers cannot tell directions apart, which is
/// exactly the measurement-granularity weakness the paper reports in
/// Fig. 8.)
struct ForcedCongestionFixture : ::testing::Test {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  std::unique_ptr<core::SchedulerService> service;
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  std::unique_ptr<transport::IperfUdpSink> sink;
  std::unique_ptr<transport::IperfUdpSender> flood;

  void SetUp() override {
    for (net::Host* h : network.hosts()) {
      stacks.push_back(std::make_unique<transport::HostStack>(*h));
    }
    service = std::make_unique<core::SchedulerService>(
        *stacks[5], core::RankerConfig{}, core::NetworkMapConfig{});
    for (const core::NodeId id : network.host_ids()) {
      service->register_edge_server(id);
    }
    for (net::Host* h : network.hosts()) {
      if (h->id() == network.scheduler_host().id()) continue;
      agents.push_back(std::make_unique<telemetry::ProbeAgent>(
          *h, network.scheduler_host().id()));
      agents.back()->start();
    }
    // Saturate pod 3 internally: node7 -> node8 at 22 Mbps.
    sink = std::make_unique<transport::IperfUdpSink>(*stacks[7]);
    transport::IperfUdpSender::Config cfg;
    cfg.rate = sim::DataRate::megabits_per_second(22.0);
    flood = std::make_unique<transport::IperfUdpSender>(
        *stacks[6], network.hosts()[7]->id(), cfg);
    flood->start();
    sim.run_until(sim::SimTime::seconds(5));
  }
};

std::size_t rank_of(const std::vector<core::ServerRank>& ranked,
                    core::NodeId server) {
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].server == server) return i;
  }
  return ranked.size();
}

TEST_F(ForcedCongestionFixture, DelayRankingDemotesCongestedPod) {
  const auto ranked = service->rank_for(core::NodeId{0}, core::RankingMetric::kDelay);
  ASSERT_EQ(ranked.size(), 7u);
  // Clean pod 1 (nodes 3, 4 = ids 2, 3) must beat congested pod 3
  // (nodes 7, 8 = ids 6, 7) at equal distance.
  EXPECT_LT(rank_of(ranked, core::NodeId{2}), rank_of(ranked, core::NodeId{6}));
  EXPECT_LT(rank_of(ranked, core::NodeId{2}), rank_of(ranked, core::NodeId{7}));
  EXPECT_LT(rank_of(ranked, core::NodeId{3}), rank_of(ranked, core::NodeId{6}));
  EXPECT_LT(rank_of(ranked, core::NodeId{3}), rank_of(ranked, core::NodeId{7}));
  // node1's own pod is clean: its sibling still ranks first.
  EXPECT_EQ(ranked[0].server, core::NodeId{1});
}

TEST_F(ForcedCongestionFixture, BandwidthRankingDemotesCongestedPod) {
  const auto ranked = service->rank_for(core::NodeId{0}, core::RankingMetric::kBandwidth);
  ASSERT_EQ(ranked.size(), 7u);
  EXPECT_LT(rank_of(ranked, core::NodeId{2}), rank_of(ranked, core::NodeId{7}));
  EXPECT_LT(rank_of(ranked, core::NodeId{3}), rank_of(ranked, core::NodeId{7}));
  // The flooded node8's estimate collapses far below nominal.
  for (const auto& r : ranked) {
    if (r.server == core::NodeId{7}) {
      EXPECT_LT(r.bandwidth_estimate.mbps(), 10.0);
    }
  }
}

TEST_F(ForcedCongestionFixture, CongestionClearsAfterFlowStops) {
  const auto during = service->rank_for(core::NodeId{0}, core::RankingMetric::kDelay);
  const auto d7_during = during[rank_of(during, core::NodeId{6})].delay_estimate;

  flood->stop();
  sim.run_until(sim.now() + sim::SimDuration::seconds(3));
  const auto after = service->rank_for(core::NodeId{0}, core::RankingMetric::kDelay);
  const auto d7_after = after[rank_of(after, core::NodeId{6})].delay_estimate;
  // Registers drained and freshness windows expired: the congested pod's
  // estimate collapses back toward its structural baseline. (The baseline
  // itself is higher than pod 1's because the M0-M3 ring link lies on no
  // probe path — the probe-coverage limitation the paper defers to future
  // work — so we assert recovery, not equality with pod 1.)
  EXPECT_LT(d7_after, d7_during / 2);
  EXPECT_LT(d7_after, sim::SimDuration::milliseconds(200));
  EXPECT_EQ(after[0].server, core::NodeId{1});
}

TEST_F(ForcedCongestionFixture, UnprobedRingLinkStaysUnknown) {
  // Ground truth: M0 (s3, id 10) connects to M3 (s12, id 19), but no
  // host-to-scheduler probe traverses that link, so the inferred map must
  // route around it. This documents the paper's coverage assumption.
  const auto covered = network.probe_covered_links();
  EXPECT_FALSE(covered.contains({core::NodeId{10}, core::NodeId{19}}));
  EXPECT_FALSE(covered.contains({core::NodeId{19}, core::NodeId{10}}));
  const auto view = service->view();
  EXPECT_EQ(view->region_snapshot(core::RegionId{0}).map().egress_port(
                core::NodeId{10}, core::NodeId{19}),
            -1);
}

TEST_F(ForcedCongestionFixture, MapTracksAllLinksDespiteCongestion) {
  const auto view = service->view();
  EXPECT_GE(view->region_snapshot(core::RegionId{0}).map().known_link_count(),
            30);
  EXPECT_GT(service->map().reports_ingested(), 100);
}

/// System-level run with every component engaged.
TEST(FullSystemTest, IntBeatsNearestUnderConstructedHotspot) {
  // Custom scenario built through the experiment runner: heavy random
  // background, serverless workload. Totals pooled across three seeds
  // because the paper itself reports per-task regressions (Fig. 8) — only
  // the pooled mean is a stable claim.
  double int_total = 0.0;
  double nearest_total = 0.0;
  for (const std::uint64_t seed : {42ULL, 43ULL, 44ULL}) {
    exp::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.workload.total_tasks = 60;
    cfg.workload.job_interval = sim::SimDuration::seconds(2);
    cfg.background.mode = exp::BackgroundMode::kRandomPairs;
    const auto results = exp::run_policy_suite(
        cfg, {core::PolicyKind::kIntDelay, core::PolicyKind::kNearest});
    for (const auto& [policy, result] : results) {
      EXPECT_EQ(result.tasks_completed, result.tasks_total)
          << core::to_string(policy) << " seed " << seed;
      double total = 0.0;
      for (const edge::TaskRecord* r : result.metrics.records()) {
        total += r->completion_time().to_seconds();
      }
      (policy == core::PolicyKind::kIntDelay ? int_total : nearest_total) +=
          total;
    }
  }
  EXPECT_LT(int_total, nearest_total);
}

TEST(FullSystemTest, ProbeOverheadStaysNegligible) {
  exp::ExperimentConfig cfg;
  cfg.seed = 3;
  cfg.workload.total_tasks = 12;
  cfg.background.mode = exp::BackgroundMode::kNone;
  const auto result = exp::run_experiment(cfg);
  // Paper: 120 kbps per server, ~1.1% of a 10 Mbps link. Compare probe
  // bytes against the nominal capacity over the run.
  const double probe_bps =
      static_cast<double>(result.probe_bytes_sent) * 8.0 /
      result.sim_duration.to_seconds();
  const double per_server_kbps = probe_bps / 7.0 / 1000.0;
  EXPECT_LT(per_server_kbps, 130.0);
  EXPECT_GT(per_server_kbps, 50.0);
}

TEST(FullSystemTest, SchedulerQueriesCostOneRoundTripEach) {
  exp::ExperimentConfig cfg;
  cfg.seed = 3;
  cfg.policy = core::PolicyKind::kIntDelay;
  cfg.workload.total_tasks = 12;
  cfg.background.mode = exp::BackgroundMode::kNone;
  const auto result = exp::run_experiment(cfg);
  // Every remote job queried once (node6's jobs use the direct path).
  EXPECT_LE(result.queries_served, 12);
  EXPECT_GT(result.queries_served, 0);
  for (const edge::TaskRecord* r : result.metrics.records()) {
    EXPECT_GE(r->scheduled, r->submitted);
    // Query latency below a second even on the 5-link diameter.
    EXPECT_LT(r->scheduled - r->submitted, sim::SimDuration::seconds(1));
  }
}

}  // namespace
}  // namespace intsched

// -- Fig.-3 shape property: queue telemetry grows monotonically with load --

#include "intsched/net/topology.hpp"
#include "intsched/telemetry/int_program.hpp"

namespace intsched {
namespace {

TEST(CalibrationShapeTest, QueueTelemetryMonotoneInUtilization) {
  // Three load points through one switch; the collected max-queue
  // telemetry must grow with offered load (the relationship both ranking
  // metrics rely on).
  double previous = -1.0;
  for (const double utilization : {0.3, 0.7, 0.95}) {
    sim::Simulator sim;
    net::Topology topo{sim};
    auto& h1 = topo.add_node<net::Host>("h1");
    auto& h2 = topo.add_node<net::Host>("h2");
    p4::SwitchConfig cfg;
    cfg.seed = 9;
    auto& s1 = topo.add_node<p4::P4Switch>("s1", cfg);
    net::LinkConfig link;
    topo.connect(h1, s1, link);
    topo.connect(h2, s1, link);
    topo.install_routes();
    s1.load_program(std::make_unique<telemetry::IntTelemetryProgram>());

    transport::HostStack stack1{h1};
    transport::HostStack stack2{h2};
    transport::IperfUdpSink sink{stack2};
    const sim::SimDuration per_pkt =
        link.rate.transmission_time(1500) + cfg.proc_delay_mean;
    transport::IperfUdpSender::Config flow;
    flow.rate = sim::DataRate::bits_per_second(
                    1500.0 * 8.0 / per_pkt.to_seconds()) *
                utilization;
    transport::IperfUdpSender iperf{stack1, h2.id(), flow};
    iperf.start(sim::SimDuration::seconds(20));

    telemetry::ProbeAgent agent{h1, h2.id()};
    telemetry::IntCollector collector{h2};
    stack2.bind_udp(net::kProbePort, [&](const net::Packet& p) {
      collector.handle_packet(p);
    });
    sim::RunningStats maxq;
    collector.set_handler([&](const telemetry::ProbeReport& r) {
      for (const auto& e : r.entries) {
        maxq.add(static_cast<double>(e.device_max_queue_pkts));
      }
    });
    agent.start();
    sim.run_until(sim::SimTime::seconds(20));

    EXPECT_GT(maxq.mean(), previous)
        << "utilization " << utilization;
    previous = maxq.mean();
  }
}

}  // namespace
}  // namespace intsched
