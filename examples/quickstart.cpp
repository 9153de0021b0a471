// Quickstart: bring up the paper's Fig.-4 network with INT telemetry,
// let probes map the network, then ask the scheduler to rank edge servers
// for a device — once on an idle network and once with a congested link.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <iostream>

#include "intsched/core/scheduler_service.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/sim/simulator.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/iperf.hpp"

using namespace intsched;

namespace {

void print_ranking(const char* label,
                   const std::vector<core::ServerRank>& ranked) {
  std::cout << label << "\n";
  for (const core::ServerRank& r : ranked) {
    std::cout << "  node" << r.server.value() + 1
              << "  delay=" << sim::to_string(r.delay_estimate)
              << "  bandwidth=" << r.bandwidth_estimate.mbps() << " Mbps\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  sim::Simulator sim;

  // 1. The emulated network: 8 hosts, 12 P4 switches, INT program loaded.
  exp::Fig4Network network{sim, exp::Fig4Config{}};

  // 2. Host stacks; the scheduler service lives on node 6.
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
  }
  core::SchedulerService scheduler{*stacks[5], network.topology(),
                                   core::RankerConfig{},
                                   core::NetworkMapConfig{}};
  for (const core::NodeId id : network.host_ids()) {
    scheduler.register_edge_server(id);
  }

  // 3. Every edge server probes the scheduler every 100 ms.
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (net::Host* h : network.hosts()) {
    if (h->id() == network.scheduler_host().id()) continue;
    agents.push_back(std::make_unique<telemetry::ProbeAgent>(
        *h, network.scheduler_host().id()));
    agents.back()->start();
  }

  // 4. Let the map build, then rank candidates for node 1 on an idle net.
  sim.run_until(sim::SimTime::seconds(2));
  std::cout << "After " << sim::to_string(sim.now()) << ": map knows "
            << scheduler.view()
                   ->region_snapshot(core::RegionId{0})
                   .map()
                   .known_link_count()
            << " directed links from " << scheduler.map().reports_ingested()
            << " probe reports\n\n";
  print_ranking("Ranking for node1 (idle network, delay metric):",
                scheduler.rank_for(core::NodeId{0}, core::RankingMetric::kDelay));
  std::cout << "(nodes 7/8 are truly one ring-hop closer than 5/6 yet rank "
               "behind them: the M0-M3 ring\n link lies on no probe path, "
               "so the inferred map detours around it — the paper's\n "
               "probe-coverage assumption; see bench/ablation_probe_routing "
               "for the fix)\n\n";

  // 5. Congest node1's nearest neighbour (node2) with an iperf flow, then
  //    rank again: the scheduler should now demote node2.
  transport::IperfUdpSender::Config flow;
  flow.rate = sim::DataRate::megabits_per_second(19.0);
  transport::IperfUdpSink sink{*stacks[1]};
  transport::IperfUdpSender iperf{*stacks[4], network.hosts()[1]->id(),
                                  flow};
  iperf.start(sim::SimDuration::seconds(10));
  sim.run_until(sim::SimTime::seconds(8));

  print_ranking("Ranking for node1 (node2 congested, delay metric):",
                scheduler.rank_for(core::NodeId{0}, core::RankingMetric::kDelay));
  print_ranking("Ranking for node1 (node2 congested, bandwidth metric):",
                scheduler.rank_for(core::NodeId{0}, core::RankingMetric::kBandwidth));

  std::cout << "Simulated " << sim.events_executed() << " events in "
            << sim::to_string(sim.now()) << " of virtual time\n";
  return 0;
}
