// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the scheduler: event queue churn, per-packet pipeline cost, INT
// probe processing, Dijkstra, and Algorithm-1 ranking.

#include <benchmark/benchmark.h>

#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/sim/event_queue.hpp"
#include "intsched/sim/rng.hpp"
#include "intsched/sim/strfmt.hpp"
#include "intsched/telemetry/collector.hpp"
#include "intsched/telemetry/int_program.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/host_stack.hpp"
#include "intsched/transport/tcp.hpp"

namespace {

using namespace intsched;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng{1};
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(sim::SimTime::nanoseconds(t + rng.uniform_int(0, 1'000'000)),
             [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto [at, cb] = q.pop();
      t = at.ns();
      benchmark::DoNotOptimize(cb);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueuePushPop);

/// Timer-heavy workloads (TCP retransmit timers, staleness timeouts) arm
/// events that are almost always cancelled before firing; this measures
/// the slab's tombstone path: push + cancel churn with a live heap.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng{1};
  std::int64_t t = 0;
  std::vector<sim::EventId> armed;
  for (auto _ : state) {
    armed.clear();
    for (int i = 0; i < 64; ++i) {
      armed.push_back(q.push(
          sim::SimTime::nanoseconds(t + 1 + rng.uniform_int(0, 1'000'000)),
          [] {}));
    }
    // Cancel three quarters of them (the timer-churn pattern), fire the
    // rest so the heap drains its tombstones.
    for (std::size_t i = 0; i < armed.size(); ++i) {
      if (i % 4 != 0) q.cancel(armed[i]);
    }
    for (int i = 0; i < 16; ++i) {
      auto [at, cb] = q.pop();
      t = at.ns();
      benchmark::DoNotOptimize(cb);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

void BM_DijkstraFig4(benchmark::State& state) {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  const net::Graph& g = network.topology().graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(g, core::NodeId{0}));
  }
}
BENCHMARK(BM_DijkstraFig4);

/// Cost of pushing one data packet through a P4 switch pipeline
/// (parse + table lookup + enqueue + egress), amortized.
void BM_SwitchPipelinePerPacket(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo{sim};
  auto& a = topo.add_node<net::Host>("a");
  auto& b = topo.add_node<net::Host>("b");
  p4::SwitchConfig cfg;
  cfg.proc_delay_mean = sim::SimDuration::microseconds(1);
  cfg.stall_probability = 0.0;
  auto& sw = topo.add_node<p4::P4Switch>("sw", cfg);
  net::LinkConfig link;
  link.prop_delay = sim::SimDuration::microseconds(1);
  topo.connect(a, sw, link);
  topo.connect(b, sw, link);
  topo.install_routes();
  sw.load_program(std::make_unique<telemetry::IntTelemetryProgram>());
  std::int64_t delivered = 0;
  b.set_receiver([&](net::Packet&&) { ++delivered; });
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      net::Packet p;
      p.dst = b.id();
      p.wire_size = 1500;
      a.send(std::move(p));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SwitchPipelinePerPacket);

/// Full probe round: host -> 3 switches -> collector, parse included.
void BM_ProbeRoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo{sim};
  auto& a = topo.add_node<net::Host>("a");
  auto& b = topo.add_node<net::Host>("b");
  p4::SwitchConfig cfg;
  cfg.proc_delay_mean = sim::SimDuration::microseconds(1);
  cfg.stall_probability = 0.0;
  std::vector<p4::P4Switch*> switches;
  for (int i = 0; i < 3; ++i) {
    switches.push_back(&topo.add_node<p4::P4Switch>(sim::cat("s", i), cfg));
  }
  net::LinkConfig link;
  link.prop_delay = sim::SimDuration::microseconds(1);
  topo.connect(a, *switches[0], link);
  topo.connect(*switches[0], *switches[1], link);
  topo.connect(*switches[1], *switches[2], link);
  topo.connect(*switches[2], b, link);
  topo.install_routes();
  for (auto* sw : switches) {
    sw->load_program(std::make_unique<telemetry::IntTelemetryProgram>());
  }
  transport::HostStack stack_b{b};
  telemetry::IntCollector collector{b};
  stack_b.bind_udp(net::kProbePort, [&](const net::Packet& p) {
    collector.handle_packet(p);
  });
  telemetry::ProbeAgent agent{a, b.id()};
  for (auto _ : state) {
    agent.send_probe();
    sim.run();
  }
  benchmark::DoNotOptimize(collector.probes_received());
}
BENCHMARK(BM_ProbeRoundTrip);

/// Ingest + window-max congestion queries against the monotonic
/// max-deque, interleaved the way the scheduler sees them: a burst of
/// probe reports per probing interval, many ranking queries in between.
void BM_WindowMaxQuery(benchmark::State& state) {
  core::NetworkMap map;
  sim::Rng rng{1};
  sim::SimTime now = sim::SimTime::zero();
  const core::NodeId device{3};
  std::int64_t acc = 0;
  for (auto _ : state) {
    now += sim::SimDuration::milliseconds(10);
    telemetry::ProbeReport report;
    report.src = core::NodeId{100};
    report.dst = core::NodeId{101};
    net::IntStackEntry entry;
    entry.device = device;
    entry.ingress_port = 0;
    entry.egress_port = 1;
    entry.max_queue_pkts = rng.uniform_int(0, 64);
    entry.device_max_queue_pkts = entry.max_queue_pkts;
    report.entries.push_back(entry);
    map.ingest(report, now);
    for (int i = 0; i < 32; ++i) {
      acc += map.device_max_queue(device, now);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WindowMaxQuery);

/// Algorithm 1 over the inferred Fig. 4 map with live telemetry, through
/// the scheduler's route: a one-region ShardedNetworkMap's published view.
void BM_RankSevenCandidates(benchmark::State& state) {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  const core::NodeId scheduler_id = network.scheduler_host().id();
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  transport::HostStack* scheduler_stack = nullptr;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
    if (h->id() == scheduler_id) scheduler_stack = stacks.back().get();
  }
  telemetry::IntCollector collector{network.scheduler_host()};
  core::ShardedNetworkMap map{core::RegionAssignment::single_region(
      static_cast<std::int32_t>(network.topology().node_count()))};
  scheduler_stack->bind_udp(net::kProbePort, [&](const net::Packet& p) {
    collector.handle_packet(p);
  });
  collector.set_handler([&](const telemetry::ProbeReport& r) {
    map.apply(r, sim.now());
  });
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (net::Host* h : network.hosts()) {
    if (h->id() == scheduler_id) continue;
    agents.push_back(
        std::make_unique<telemetry::ProbeAgent>(*h, scheduler_id));
    agents.back()->start();
  }
  sim.run_until(sim::SimTime::seconds(1));
  map.publish();
  const std::shared_ptr<const core::MetroView> view = map.view();
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{2}, core::NodeId{3}, core::NodeId{4}, core::NodeId{5}, core::NodeId{6}, core::NodeId{7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(view->rank(
        core::NodeId{0}, candidates, core::RankingMetric::kDelay, sim.now()));
  }
}
BENCHMARK(BM_RankSevenCandidates);

// -- rank_plane: the compiled plane kernels on a warmed metro -------------
//
// One warmed metro (8 pods, smoke scale) published by a sharded map;
// every benchmark below cycles origins over the hosts so the per-origin
// memo is warm and the number measured is steady-state per-query cost,
// not the fill. Leaked on purpose (function-local static pointer): shared
// bench state must outlive google-benchmark's teardown in every exit path.
struct MetroRankState {
  net::GenTopology topo;
  std::unique_ptr<core::ShardedNetworkMap> map;
  std::vector<core::NodeId> servers;
  std::vector<core::NodeId> origins;
  sim::SimTime now = sim::SimTime::seconds(1);

  MetroRankState() {
    net::MetroConfig cfg;
    cfg.seed = 42;
    cfg.pods = 8;
    topo = net::TopologyGen::ring_of_pods(cfg);
    map = std::make_unique<core::ShardedNetworkMap>(
        core::RegionAssignment::from_topology(topo));
    exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = 42}};
    map->ingest_batch(gen.full_sweep(), now);
    servers = topo.edge_servers();
    origins = topo.hosts();
  }
};

MetroRankState& metro_rank_state() {
  static MetroRankState* state = new MetroRankState;
  return *state;
}

void run_metro_rank(benchmark::State& state, std::size_t top_k) {
  MetroRankState& s = metro_rank_state();
  const std::shared_ptr<const core::MetroView> view = s.map->view();
  core::MetroView::RankScratch scratch;
  std::vector<core::ServerRank> out;
  std::size_t q = 0;
  for (auto _ : state) {
    const core::NodeId origin = s.origins[q % s.origins.size()];
    ++q;
    view->rank_topk_into(origin, s.servers.data(), s.servers.size(),
                         core::RankingMetric::kDelay, s.now, top_k, scratch,
                         out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Full ranking of every edge server from a compiled plane.
void BM_RankPlaneMetroFull(benchmark::State& state) {
  run_metro_rank(state, metro_rank_state().servers.size());
}
BENCHMARK(BM_RankPlaneMetroFull);

/// Top-8 partial selection from the compiled plane — the serve-frontend
/// multi-result shape (max_results << candidate count).
void BM_RankPlaneMetroTop8(benchmark::State& state) {
  run_metro_rank(state, 8);
}
BENCHMARK(BM_RankPlaneMetroTop8);

/// Region-pruned best-server pick over the plane's branchless argmin.
void BM_PickPlaneMetro(benchmark::State& state) {
  MetroRankState& s = metro_rank_state();
  const std::shared_ptr<const core::MetroView> view = s.map->view();
  core::MetroView::RankScratch scratch;
  std::size_t q = 0;
  for (auto _ : state) {
    const core::NodeId origin = s.origins[q % s.origins.size()];
    ++q;
    benchmark::DoNotOptimize(
        view->pick_with(origin, s.servers.data(), s.servers.size(),
                        core::RankingMetric::kDelay, s.now, scratch, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PickPlaneMetro);

/// End-to-end simulated TCP throughput: wall time per simulated megabyte.
void BM_TcpTransferPerMB(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo{sim};
    auto& a = topo.add_node<net::Host>("a");
    auto& b = topo.add_node<net::Host>("b");
    p4::SwitchConfig cfg;
    cfg.stall_probability = 0.0;
    auto& sw = topo.add_node<p4::P4Switch>("sw", cfg);
    topo.connect(a, sw, net::LinkConfig{});
    topo.connect(b, sw, net::LinkConfig{});
    topo.install_routes();
    sw.load_program(std::make_unique<p4::ForwardingProgram>());
    transport::HostStack stack_a{a};
    transport::HostStack stack_b{b};
    transport::TcpListener listener{
        stack_b, net::kTaskPort,
        [](core::NodeId, sim::Bytes, std::shared_ptr<const net::AppMessage>) {
        }};
    transport::TcpSender sender{stack_a, b.id(), net::kTaskPort,
                                1 * sim::kMB};
    sender.start();
    sim.run();
    benchmark::DoNotOptimize(sender.complete());
  }
  state.SetBytesProcessed(state.iterations() * sim::kMB);
}
BENCHMARK(BM_TcpTransferPerMB)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
