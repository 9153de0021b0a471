#include "reference.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "intsched/core/network_map.hpp"

namespace perfbench {

Estimator estimator_of(const intsched::core::NetworkMap& map,
                       intsched::sim::SimTime now) {
  return Estimator{
      [&map](NodeId from, NodeId to) { return map.link_delay(from, to); },
      [&map, now](NodeId device) { return map.device_max_queue(device, now); },
  };
}

ReferenceAlgorithm1::ReferenceAlgorithm1(
    std::size_t node_count, const std::vector<std::pair<NodeId, NodeId>>& links,
    SimDuration k_factor)
    : adj_(node_count), k_{k_factor} {
  for (const auto& [a, b] : links) {
    adj_[a.index()].push_back(b);
    adj_[b.index()].push_back(a);
  }
}

std::vector<RefRank> ReferenceAlgorithm1::rank(
    const Estimator& est, NodeId origin,
    const std::vector<NodeId>& candidates) const {
  const std::size_t n = adj_.size();
  const SimDuration inf = SimDuration::max();
  std::vector<SimDuration> dist(n, inf);
  std::vector<NodeId> pred(n, intsched::core::kInvalidNode);
  std::vector<char> done(n, 0);

  // Dijkstra on (distance, node id); an equal-distance relaxation keeps
  // the smaller predecessor id.
  using Item = std::pair<SimDuration, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[origin.index()] = SimDuration::zero();
  heap.emplace(SimDuration::zero(), origin.value());
  while (!heap.empty()) {
    const auto [d, u_raw] = heap.top();
    heap.pop();
    const NodeId u{u_raw};
    if (done[u.index()] != 0) continue;
    done[u.index()] = 1;
    for (const NodeId v : adj_[u.index()]) {
      if (done[v.index()] != 0) continue;
      const SimDuration nd = d + est.link_delay(u, v);
      SimDuration& dv = dist[v.index()];
      if (nd < dv || (nd == dv && u < pred[v.index()])) {
        if (nd < dv) heap.emplace(nd, v.value());
        dv = nd;
        pred[v.index()] = u;
      }
    }
  }

  std::vector<RefRank> out;
  out.reserve(candidates.size());
  for (const NodeId s : candidates) {
    RefRank r;
    r.server = s;
    if (s != origin && dist[s.index()] != inf) {
      // Link part = the path's distance; queue part over the intermediate
      // devices (every node strictly between origin and server).
      SimDuration queue_part = SimDuration::zero();
      for (NodeId hop = pred[s.index()]; hop != origin;
           hop = pred[hop.index()]) {
        queue_part += k_ * est.max_queue(hop);
      }
      r.key = dist[s.index()] + queue_part;
    }
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const RefRank& a, const RefRank& b) {
    return std::tie(a.key, a.server) < std::tie(b.key, b.server);
  });
  return out;
}

bool matches_reference(const std::vector<RefRank>& reference,
                       const std::vector<RefRank>& served) {
  if (served.size() > reference.size()) return false;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i].server != reference[i].server ||
        served[i].key != reference[i].key) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
