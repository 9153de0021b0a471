#pragma once

// Flat Algorithm 1 oracle for the equivalence tests. The scheduler ranks
// through one route and one kernel — ShardedNetworkMap's published
// MetroView, scored by compiled rank planes — and this is the independent
// reference it is held to: a plain Dijkstra over one NetworkMap's delay
// graph per query, each candidate path re-walked and scored by the
// per-path estimators below. No cache, no snapshot, no regions, no
// compiled plane; slow on purpose, simple enough to trust.

#include <algorithm>
#include <cassert>
#include <vector>

#include "intsched/core/network_map.hpp"
#include "intsched/core/ranking.hpp"
#include "intsched/net/routing.hpp"

namespace intsched::core {

/// Algorithm 1 for a single path: sum of link-delay estimates plus
/// k * maxQueue (per cfg.queue_statistic) for every intermediate device.
[[nodiscard]] inline sim::SimDuration estimate_path_delay(
    const NetworkMap& map, const RankerConfig& cfg,
    const std::vector<core::NodeId>& path, sim::SimTime now) {
  assert(path.size() >= 2);
  sim::SimDuration total_link_delay = sim::SimDuration::zero();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    total_link_delay += map.link_delay(path[i], path[i + 1]);
  }
  // Hops are the intermediate devices (switches) on the path.
  sim::SimDuration total_hop_delay = sim::SimDuration::zero();
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    switch (cfg.queue_statistic) {
      case QueueStatistic::kMaximum:
        total_hop_delay += cfg.k_factor * map.device_max_queue(path[i], now);
        break;
      case QueueStatistic::kAverage:
        total_hop_delay +=
            sim::SimDuration::nanos(static_cast<std::int64_t>(
                static_cast<double>(cfg.k_factor.ns()) *
                map.device_avg_queue(path[i], now)));
        break;
      case QueueStatistic::kMeasuredHopLatency:
        total_hop_delay += map.device_hop_latency(path[i], now);
        break;
    }
  }
  return total_link_delay + total_hop_delay;
}

/// §III-D: min over links of capacity * (1 - utilization(maxQueue)).
[[nodiscard]] inline sim::DataRate estimate_path_bandwidth(
    const NetworkMap& map, const RankerConfig& cfg,
    const std::vector<core::NodeId>& path, sim::SimTime now) {
  assert(path.size() >= 2);
  const double nominal = map.config().nominal_capacity.bps();
  double min_bps = nominal;
  // The first link is the origin host's own uplink; hosts are not
  // pps-bound, so per-link availability is charged from the first switch
  // onward (each directed link's headroom is its upstream device's egress).
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    const std::int64_t q = map.link_max_queue(path[i], path[i + 1], now);
    const double util = cfg.queue_to_utilization.utilization(q);
    const double avail = nominal * (1.0 - util);
    min_bps = std::min(min_bps, avail);
  }
  return sim::DataRate::bits_per_second(min_bps);
}

/// Scores and sorts pre-resolved candidate paths into `out`, best first
/// (ascending delay / descending bandwidth, server id as the
/// deterministic tie-break). Unreachable candidates (paths with fewer
/// than two nodes) rank last with delay = max / bandwidth = 0.
inline void rank_paths_into(const NetworkMap& map, const RankerConfig& cfg,
                            const CandidatePath* candidates, std::size_t count,
                            RankingMetric metric, sim::SimTime now,
                            std::vector<ServerRank>& out) {
  out.assign(count, ServerRank{});
  for (std::size_t i = 0; i < count; ++i) {
    const CandidatePath& c = candidates[i];
    ServerRank& r = out[i];
    r.server = c.server;
    if (c.path.size() < 2) {
      r.delay_estimate = sim::SimDuration::max();
      r.bandwidth_estimate = sim::DataRate::bits_per_second(0.0);
      r.baseline_delay = sim::SimDuration::max();
    } else {
      r.delay_estimate = estimate_path_delay(map, cfg, c.path, now);
      r.bandwidth_estimate = estimate_path_bandwidth(map, cfg, c.path, now);
      r.baseline_delay = c.baseline_delay;
      r.stale = map.path_stale(c.path, now);
    }
  }
  if (metric == RankingMetric::kDelay) {
    std::sort(out.begin(), out.end(),
              [](const ServerRank& a, const ServerRank& b) {
                if (a.delay_estimate != b.delay_estimate) {
                  return a.delay_estimate < b.delay_estimate;
                }
                return a.server < b.server;
              });
  } else {
    std::sort(out.begin(), out.end(),
              [](const ServerRank& a, const ServerRank& b) {
                if (a.bandwidth_estimate != b.bandwidth_estimate) {
                  return a.bandwidth_estimate > b.bandwidth_estimate;
                }
                return a.server < b.server;
              });
  }
}

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
