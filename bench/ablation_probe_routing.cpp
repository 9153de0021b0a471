// Ablation: probe-route optimization (the paper's §III-A future work:
// "we leave route selection optimization for probe packets as a future
// work and assume that the probe packets visit each device").
//
// With the paper's shortest-path probing, some directed links are never
// measured (on our Fig.-4 pods realization, the M0-M3 ring link and the
// scheduler leaf's uplink direction): the scheduler's inferred topology
// detours around them and far-pod delay estimates are inflated. Source-
// routed probes (greedy waypoint planner) cover every switch link.
//
// Flags: --full, --seed=N, --reps=N, --jobs=N

#include "bench_common.hpp"
#include "intsched/core/scheduler_service.hpp"
#include "intsched/telemetry/probe_agent.hpp"

using namespace intsched;

namespace {

struct MapQuality {
  std::int64_t covered_switch_links = 0;
  std::int64_t total_switch_links = 0;
  // intsched-lint: allow(raw-unit): display statistic, fractional ms
  double node7_delay_ms = 0.0;  ///< idle-network estimate from node1
};

MapQuality measure_map(bool optimized) {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
  }
  core::SchedulerService service{*stacks[5], core::RankerConfig{},
                                 core::NetworkMapConfig{}};
  for (const core::NodeId id : network.host_ids()) {
    service.register_edge_server(id);
  }
  const auto plan = network.plan_probe_routes();
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (net::Host* h : network.hosts()) {
    if (h->id() == network.scheduler_host().id()) continue;
    telemetry::ProbeConfig pc;
    if (optimized) {
      if (const auto it = plan.find(h->id()); it != plan.end()) {
        pc.waypoints = it->second;
      }
    }
    agents.push_back(std::make_unique<telemetry::ProbeAgent>(
        *h, network.scheduler_host().id(), pc));
    agents.back()->start();
  }
  sim.run_until(sim::SimTime::seconds(2));

  MapQuality q;
  const auto view = service.view();
  const core::NetworkMap& map = view->region_snapshot(core::RegionId{0}).map();
  for (const auto& [from, to] : network.switch_links()) {
    ++q.total_switch_links;
    // A link is "covered" when its delay was actually measured (the
    // default estimate is exactly the configured 10 ms).
    if (map.link_delay(from, to) >
        sim::SimDuration::milliseconds(10)) {
      ++q.covered_switch_links;
    }
  }
  const auto ranked = service.rank_for(core::NodeId{0}, core::RankingMetric::kDelay);
  for (const auto& r : ranked) {
    if (r.server == core::NodeId{6}) q.node7_delay_ms = r.delay_estimate.to_milliseconds();
  }
  return q;
}

double overall_gain(bool optimized, const benchtool::Options& opts) {
  exp::ExperimentConfig cfg =
      benchtool::make_base_config(edge::WorkloadKind::kServerless, opts);
  cfg.optimize_probe_routes = optimized;
  const auto results = benchtool::run_suite(
      cfg, {core::PolicyKind::kIntDelay, core::PolicyKind::kNearest},
      opts.reps, opts.jobs);
  double treat = 0.0;
  double base = 0.0;
  for (const edge::TaskClass cls : edge::kAllTaskClasses) {
    const auto t = benchtool::pooled_class_mean(
        results.at(core::PolicyKind::kIntDelay), cls, false);
    const auto n = benchtool::pooled_class_mean(
        results.at(core::PolicyKind::kNearest), cls, false);
    if (t && n) {
      treat += *t;
      base += *n;
    }
  }
  return exp::percent_gain(base, treat);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchtool::parse_options(argc, argv);
  std::cout << "Ablation: probe-route optimization (paper SIII-A future "
               "work)\n\n";

  const MapQuality plain = measure_map(false);
  const MapQuality optimized = measure_map(true);
  exp::TextTable map_table{"inferred-map quality on an idle network"};
  map_table.set_headers({"probing", "measured switch links",
                         "node1->node7 delay estimate (ms)"});
  map_table.add_row(
      {"shortest path (paper)",
       sim::cat(plain.covered_switch_links, "/", plain.total_switch_links),
       exp::fmt_seconds(plain.node7_delay_ms)});
  map_table.add_row(
      {"source-routed (planner)",
       sim::cat(optimized.covered_switch_links, "/",
                optimized.total_switch_links),
       exp::fmt_seconds(optimized.node7_delay_ms)});
  map_table.print(std::cout);
  std::cout << "(true node1->node7 path delay is ~51 ms: 5 links + "
               "service time)\n\n";

  exp::TextTable gain_table{"scheduling gain vs nearest"};
  gain_table.set_headers({"probing", "overall gain"});
  gain_table.add_row({"shortest path (paper)",
                      exp::fmt_percent(overall_gain(false, opts))});
  gain_table.add_row({"source-routed (planner)",
                      exp::fmt_percent(overall_gain(true, opts))});
  gain_table.print(std::cout);
  return 0;
}
