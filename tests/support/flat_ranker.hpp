#pragma once

// Flat Algorithm 1 oracle for the equivalence tests. The scheduler ranks
// through one route — ShardedNetworkMap's published MetroView, compiled
// rank planes included — and this is the independent reference it is
// held to: a plain Dijkstra over one NetworkMap's delay graph per query,
// scored by the same rank_paths_into the uncompiled path uses. No cache,
// no snapshot, no regions; slow on purpose, simple enough to trust.

#include <vector>

#include "intsched/core/network_map.hpp"
#include "intsched/core/ranking.hpp"
#include "intsched/net/routing.hpp"

namespace intsched::core {

class Ranker {
 public:
  Ranker(const NetworkMap& map, RankerConfig config = {})
      : map_{&map}, cfg_{std::move(config)} {}

  /// Ranks `candidates` as seen from `origin` at time `now`, best first
  /// (ascending delay, or descending bandwidth, server id breaking ties).
  /// Unreachable candidates rank last with delay = SimDuration::max() /
  /// bandwidth = 0.
  [[nodiscard]] std::vector<ServerRank> rank(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now) const {
    const net::ShortestPaths sp = net::dijkstra(map_->delay_graph(), origin);
    std::vector<CandidatePath> paths;
    paths.reserve(candidates.size());
    for (const core::NodeId server : candidates) {
      CandidatePath c;
      c.server = server;
      c.path = sp.path_to(server);
      const auto d = sp.distance.find(server);
      if (d != sp.distance.end()) c.baseline_delay = d->second;
      paths.push_back(std::move(c));
    }
    std::vector<ServerRank> out;
    rank_paths_into(*map_, cfg_, paths.data(), paths.size(), metric, now,
                    out);
    return out;
  }

  /// Algorithm 1 for a single path: sum of link-delay estimates plus
  /// k * maxQueue for every intermediate device.
  [[nodiscard]] sim::SimDuration path_delay_estimate(
      const std::vector<core::NodeId>& path, sim::SimTime now) const {
    return estimate_path_delay(*map_, cfg_, path, now);
  }

  /// §III-D: min over links of capacity * (1 - utilization(maxQueue)).
  [[nodiscard]] sim::DataRate path_bandwidth_estimate(
      const std::vector<core::NodeId>& path, sim::SimTime now) const {
    return estimate_path_bandwidth(*map_, cfg_, path, now);
  }

  void set_k_factor(sim::SimDuration k) { cfg_.k_factor = k; }

 private:
  const NetworkMap* map_;
  RankerConfig cfg_;
};

}  // namespace intsched::core
