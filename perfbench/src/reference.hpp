#pragma once

// Reference Algorithm 1, written apart from the program's ranking code so
// the benchmark can check served answers against it.
//
// Input is the estimator: per directed link a delay estimate and per
// device a max-queue reading (on the metro workloads, what a plain
// core::NetworkMap learns from the same probe reports). From that the
// reference recomputes, per origin, everything the served answer is
// derived from:
//   * path assembly: its own Dijkstra over the topology's links, weighted
//     by the link estimates; among equal-distance paths the smallest
//     predecessor id wins (the routing layer's documented tie rule);
//   * the delay key of each candidate: the path's link-delay sum plus
//     k * max-queue for every intermediate device;
//   * selection: ascending key, ties to the ascending server id; the
//     origin itself and unreachable servers rank last with an infinite
//     key (a zero-hop "path" is not a route to offload over).

#include <cstdint>
#include <functional>
#include <vector>

#include "intsched/core/types.hpp"
#include "intsched/sim/time.hpp"

namespace intsched::core {
class NetworkMap;
}

namespace perfbench {

using intsched::core::NodeId;
using intsched::sim::SimDuration;

/// What the reference reads: link delay estimates and device queues.
struct Estimator {
  std::function<SimDuration(NodeId from, NodeId to)> link_delay;
  std::function<std::int64_t(NodeId device)> max_queue;
};

/// The estimator a plain NetworkMap provides at sim-time `now`.
[[nodiscard]] Estimator estimator_of(const intsched::core::NetworkMap& map,
                                     intsched::sim::SimTime now);

struct RefRank {
  NodeId server = intsched::core::kInvalidNode;
  SimDuration key = SimDuration::max();
};

class ReferenceAlgorithm1 {
 public:
  /// `links` are undirected (both directions are routable); node ids are
  /// dense in [0, node_count).
  ReferenceAlgorithm1(std::size_t node_count,
                      const std::vector<std::pair<NodeId, NodeId>>& links,
                      SimDuration k_factor);

  /// Every candidate ranked best first (ascending key, then server id).
  [[nodiscard]] std::vector<RefRank> rank(
      const Estimator& est, NodeId origin,
      const std::vector<NodeId>& candidates) const;

 private:
  std::vector<std::vector<NodeId>> adj_;
  SimDuration k_;
};

/// True when a served best-first list equals the reference's first
/// `served.size()` entries (server and key).
[[nodiscard]] bool matches_reference(const std::vector<RefRank>& reference,
                                     const std::vector<RefRank>& served);

}  // namespace perfbench
