#include "metro_setup.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "stats.hpp"

namespace perfbench {

namespace core = intsched::core;
namespace net = intsched::net;
namespace sim = intsched::sim;

sim::SimTime sweep_time() {
  return sim::SimTime::at(sim::SimDuration::milliseconds(1000));
}

namespace {

net::MetroConfig metro_config(MetroSize size, std::uint64_t seed) {
  net::MetroConfig cfg;
  cfg.seed = seed;
  cfg.pods = 4;
  if (size == MetroSize::kFull) {
    // The shape of bench/qps_serve --full (its make_metro_config): 48 x
    // (6 + 16) = 1056 switches, 768 hosts, 192 edge servers, which
    // build_metro checks.
    cfg.pods = 48;
    cfg.pod.spines = 6;
    cfg.pod.leaves = 16;
    cfg.pod.hosts_per_leaf = 1;
    cfg.pod.edge_servers_per_pod = 4;
    cfg.ring_chords = 2;
  }
  return cfg;
}

}  // namespace

std::unique_ptr<Metro> build_metro(MetroSize size, std::uint64_t seed,
                                   const WarmStream& warm, SetupCost& cost,
                                   Tally& tally) {
  const std::int64_t t0 = wall_ns();
  auto m = std::make_unique<Metro>();
  m->topo = net::TopologyGen::ring_of_pods(metro_config(size, seed));
  if (const auto problems = m->topo.validate(); !problems.empty()) {
    throw std::runtime_error("generated metro is malformed: " +
                             problems.front());
  }
  m->hosts = m->topo.hosts();
  m->servers = m->topo.edge_servers();
  if (size == MetroSize::kFull &&
      (m->topo.switch_count() != 1056 || m->hosts.size() != 768 ||
       m->servers.size() != 192)) {
    throw std::runtime_error(
        "full metro is not 1056 switches, 768 hosts, 192 edge servers");
  }
  std::sort(m->servers.begin(), m->servers.end());
  m->telemetry = std::make_unique<intsched::exp::MetroTelemetryGen>(
      m->topo, intsched::exp::MetroTelemetryConfig{.seed = seed});
  m->sweep = m->telemetry->full_sweep();
  m->map = std::make_unique<core::ShardedNetworkMap>(
      core::RegionAssignment::from_topology(m->topo));

  const std::int64_t builds_before = m->map->region_snapshot_builds();
  const std::int64_t i0 = wall_ns();
  m->map->ingest_batch(m->sweep, sweep_time());
  const std::int64_t i1 = wall_ns();
  cost.ingest_ms = static_cast<double>(i1 - i0) / 1e6;
  cost.region_builds = m->map->region_snapshot_builds() - builds_before;
  cost.reports = static_cast<std::int64_t>(m->sweep.size());

  m->frontend = std::make_unique<ServeFrontend>(*m->map);
  for (const NodeId s : m->servers) m->frontend->register_server(s);

  const Stream stream = warm(*m);
  Client client{*m->frontend, stream, 0};
  std::vector<std::int64_t> latency;
  latency.reserve(stream.shapes.size());
  client.run(stream.shapes.size(), sweep_time(),
             m->map->view()->epoch().value(), latency, tally);
  cost.total_s = static_cast<double>(wall_ns() - t0) / 1e9;

  cost.memo_fill_ms.clear();
  for (std::size_t i = 0; i + 1 < latency.size(); i += 2) {
    cost.memo_fill_ms.push_back(
        static_cast<double>(latency[i] - latency[i + 1]) / 1e6);
  }
  return m;
}

std::unique_ptr<Metro> build_metro_repeated(MetroSize size, std::uint64_t seed,
                                            int reps, const WarmStream& warm,
                                            std::vector<SetupCost>& costs,
                                            Tally& tally) {
  std::unique_ptr<Metro> m;
  for (int i = 0; i < reps; ++i) {
    m.reset();
    SetupCost cost;
    m = build_metro(size, seed, warm, cost, tally);
    costs.push_back(std::move(cost));
  }
  return m;
}

Stream twice_per_origin(const Stream& shaped,
                        const std::vector<NodeId>& hosts) {
  Stream s;
  s.max_results = shaped.max_results;
  s.candidates = shaped.candidates;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    Shape shape = shaped.shapes[i % shaped.shapes.size()];
    shape.origin = hosts[i];
    s.shapes.push_back(shape);
    s.shapes.push_back(shape);
  }
  return s;
}

ReferenceAlgorithm1 metro_reference(const Metro& m) {
  std::vector<std::pair<NodeId, NodeId>> links;
  links.reserve(m.topo.links.size());
  for (const net::GenLink& l : m.topo.links) links.emplace_back(l.a, l.b);
  return ReferenceAlgorithm1{m.topo.nodes.size(), links,
                             core::RankerConfig{}.k_factor};
}

std::unique_ptr<core::NetworkMap> plain_map() {
  return std::make_unique<core::NetworkMap>(core::ShardedMapConfig{}.map);
}

}  // namespace perfbench
