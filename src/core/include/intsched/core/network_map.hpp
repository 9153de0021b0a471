#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/types.hpp"
#include "intsched/net/routing.hpp"
#include "intsched/sim/audit.hpp"
#include "intsched/sim/units.hpp"
#include "intsched/telemetry/collector.hpp"

namespace intsched::core {

/// Directed link key (learned from probe traversal order).
struct LinkKey {
  core::NodeId from = core::kInvalidNode;
  core::NodeId to = core::kInvalidNode;
  friend constexpr bool operator==(const LinkKey&, const LinkKey&) = default;
};
struct LinkKeyHash {
  std::size_t operator()(const LinkKey& k) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.from.value()))
         << 32) |
        static_cast<std::uint32_t>(k.to.value()));
  }
};

/// (device, egress port) key for per-port queue telemetry.
struct PortKey {
  core::NodeId device = core::kInvalidNode;
  std::int32_t port = -1;
  friend constexpr bool operator==(const PortKey&, const PortKey&) = default;
};
struct PortKeyHash {
  std::size_t operator()(const PortKey& k) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(k.device.value()))
         << 32) |
        static_cast<std::uint32_t>(k.port));
  }
};

struct NetworkMapConfig {
  /// Nominal per-hop capacity assumed by the bandwidth estimator. The
  /// paper's effective BMv2 rate.
  sim::DataRate nominal_capacity = sim::DataRate::megabits_per_second(20.0);
  /// Window over which max-queue reports are aggregated ("maximum observed
  /// queue size in the last probing interval"). Reports older than this
  /// are considered stale and ignored.
  sim::SimDuration queue_window = sim::SimDuration::millis(150);
  /// EWMA weight for new link-latency samples.
  double link_delay_alpha = 0.25;
  /// Used for links never measured (e.g. reverse direction of a host
  /// access link before symmetry kicks in).
  sim::SimDuration default_link_delay = sim::SimDuration::millis(10);
  /// A link whose latest measurement is older than this is *stale*: its
  /// delay estimate is still served (last known good) but link_stale /
  /// path_stale report it so rankers can deprioritize or fall back.
  /// Zero (the default) disables staleness tracking entirely — the seed's
  /// behaviour, where estimates never expire.
  sim::SimDuration link_staleness = sim::SimDuration::zero();
};

/// The scheduler's model of the network, built *exclusively* from INT probe
/// reports (paper §III-B): adjacency from the order of INT stack entries,
/// link delays from egress-timestamp differences, congestion from
/// collect-and-reset max-queue registers.
///
/// Threading: thread-confined, no internal locking — ingest mutates every
/// table. Schedulers never share one directly: core::ShardedNetworkMap
/// owns the live maps under its writer lock and readers rank over frozen
/// copies (DESIGN.md §9-§10).
class NetworkMap {
 public:
  /// One device/port/statistic telemetry series. Public only as an
  /// *opaque resolved handle*: the compiled rank planes (DESIGN.md §15)
  /// resolve a series pointer once at plane-compile time and replay the
  /// window queries through the evaluators below. The samples layout is
  /// an implementation detail — callers never walk it directly.
  struct QueueSeries {
    /// (report time, register value) as a monotonic max-deque: times
    /// ascend, values strictly descend, dominated samples (older and no
    /// larger than a newer one) are discarded at ingest, and entries older
    /// than the queue window are pruned. The window max is therefore the
    /// first fresh entry — an O(1) front read instead of an O(W) scan.
    std::deque<std::pair<sim::SimTime, std::int64_t>> samples;
  };

  /// Per-link delay/staleness record, public for the same resolved-handle
  /// reason as QueueSeries.
  struct DelayEstimate {
    sim::SimDuration value = sim::SimDuration::zero();
    /// EWMA of |sample - value| over measured samples.
    sim::SimDuration jitter = sim::SimDuration::zero();
    /// Ingest time of the newest real sample; meaningless until measured.
    sim::SimTime measured_at = sim::SimTime::zero();
    /// False while the estimate is only the configured default or a
    /// symmetry guess; measured values always beat unmeasured ones.
    bool measured = false;
  };

  explicit NetworkMap(NetworkMapConfig config = {}) : cfg_{config} {}

  /// Ingests one parsed probe. `now` is the scheduler-local arrival time.
  void ingest(const telemetry::ProbeReport& report, sim::SimTime now);

  // -- sharded ingest primitives --
  //
  // ingest() is built from these three steps. The region-sharded map
  // (core::ShardedNetworkMap) replays the same walk over a probe report
  // but routes each step to the owning shard (region map or cross-region
  // summary map), so flat and sharded ingest stay behaviourally identical
  // by construction rather than by parallel maintenance.

  /// Learns/updates one directed link: adjacency, egress port (when
  /// `out_port` >= 0), and the delay EWMA (a negative `delay_sample`
  /// means "traversed but unmeasured" — adjacency only).
  void learn_link(core::NodeId from, core::NodeId to, std::int32_t out_port,
                  sim::SimDuration delay_sample, sim::SimTime now);

  /// Records one INT stack entry's congestion telemetry (per-port queue,
  /// device max/avg queue, measured hop latency) for entry.device.
  /// Precondition: entry.device >= 0 (callers reject damaged entries).
  void record_entry_telemetry(const net::IntStackEntry& entry,
                              sim::SimTime now);

  /// Counts an entry discarded by a caller's sanity check.
  void note_rejected_entry() { ++rejected_; }

  /// Completes one report's ingest: bumps the epoch and (under
  /// INTSCHED_AUDIT) runs the consistency audit on its amortized
  /// schedule.
  void finish_ingest(sim::SimTime now);

  // -- topology queries --

  /// Inferred graph; edge costs are current link-delay estimates. Suitable
  /// for shortest-path ranking. Hosts appear once a probe from/to them has
  /// been seen.
  [[nodiscard]] const net::Graph& graph() const { return graph_; }

  /// Snapshot with up-to-date link-delay costs on every edge — what the
  /// rankers run Dijkstra over.
  [[nodiscard]] net::Graph delay_graph() const;

  [[nodiscard]] bool knows_node(core::NodeId n) const {
    return graph_.has_node(n);
  }
  [[nodiscard]] std::int64_t known_link_count() const {
    return static_cast<std::int64_t>(link_delay_.size());
  }

  /// Estimated one-way delay of a directed link; falls back to the reverse
  /// direction (symmetry), then to the configured default.
  [[nodiscard]] sim::SimDuration link_delay(core::NodeId from,
                                            core::NodeId to) const;

  /// Smoothed absolute deviation of the link-delay samples — the "jitter
  /// characteristics" the paper's probes capture (§III-A). Zero until two
  /// measurements exist.
  [[nodiscard]] sim::SimDuration link_jitter(core::NodeId from,
                                             core::NodeId to) const;

  /// Egress port of `from` facing `to`, if learned (-1 otherwise).
  [[nodiscard]] std::int32_t egress_port(core::NodeId from,
                                         core::NodeId to) const;

  // -- congestion queries --

  /// Max queue occupancy reported for the device within the freshness
  /// window ending at `now` (Algorithm 1's Q(h_i)). Zero when nothing
  /// fresh was reported — the paper's "assume uncongested" fallback.
  [[nodiscard]] std::int64_t device_max_queue(core::NodeId device,
                                              sim::SimTime now) const;

  /// Max queue for the directed link from->to: the per-port register if the
  /// port is known and fresh, otherwise the device-level value of `from`.
  [[nodiscard]] std::int64_t link_max_queue(core::NodeId from, core::NodeId to,
                                            sim::SimTime now) const;

  /// Freshest mean occupancy (packets) reported for the device within the
  /// window — the alternative statistic the paper found inconclusive.
  [[nodiscard]] double device_avg_queue(core::NodeId device,
                                        sim::SimTime now) const;

  /// Max directly-measured in-device dwell time within the window — the
  /// hop latency a full INT deployment reports (ablation alternative to
  /// the paper's k * max_queue heuristic).
  [[nodiscard]] sim::SimDuration device_hop_latency(core::NodeId device,
                                                    sim::SimTime now) const;

  // -- resolved telemetry handles (compiled rank planes, DESIGN.md §15) --
  //
  // The plane compiler resolves each distinct device/link to stable
  // series pointers once per snapshot; the per-query gather then replays
  // device_max_queue / link_max_queue / link_stale semantics through the
  // evaluators without any hash find. Pointers are only valid while the
  // map is frozen (published snapshots) — never across an ingest.

  [[nodiscard]] const QueueSeries* find_device_queue(core::NodeId d) const {
    const auto it = device_queue_.find(d);
    return it == device_queue_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const QueueSeries* find_device_avg_queue(
      core::NodeId d) const {
    const auto it = device_avg_queue_.find(d);
    return it == device_avg_queue_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const QueueSeries* find_device_hop_latency(
      core::NodeId d) const {
    const auto it = device_hop_latency_.find(d);
    return it == device_hop_latency_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const QueueSeries* find_port_queue(core::NodeId device,
                                                   std::int32_t port) const {
    const auto it = port_queue_.find(PortKey{device, port});
    return it == port_queue_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const DelayEstimate* find_link_delay(core::NodeId from,
                                                     core::NodeId to) const {
    const auto it = link_delay_.find(LinkKey{from, to});
    return it == link_delay_.end() ? nullptr : &it->second;
  }

  /// The port series link_max_queue's port branch would read for
  /// from->to, or null when no egress port was ever learned (the branch
  /// that falls through to the device register).
  [[nodiscard]] const QueueSeries* plane_link_port_series(
      core::NodeId from, core::NodeId to) const {
    const std::int32_t p = egress_port(from, to);
    return p < 0 ? nullptr : find_port_queue(from, p);
  }

  /// Window max of a resolved series — device_max_queue's evaluation half
  /// (null/absent series = 0, the "assume uncongested" fallback).
  [[nodiscard]] INTSCHED_HOTPATH std::int64_t window_max_of(
      const QueueSeries* s, sim::SimTime now) const {
    return s == nullptr
               ? 0
               : max_in_window(*s, window_cutoff(now, cfg_.queue_window));
  }
  /// link_max_queue's port-freshness test: true when the series exists
  /// and its newest sample is inside the queue window.
  [[nodiscard]] INTSCHED_HOTPATH bool port_series_fresh(
      const QueueSeries* s, sim::SimTime now) const {
    return s != nullptr && !s->samples.empty() &&
           s->samples.back().first >= window_cutoff(now, cfg_.queue_window);
  }
  /// link_stale over resolved forward/reverse records — including the
  /// disabled-window early-out, so semantics match per owning map.
  [[nodiscard]] INTSCHED_HOTPATH bool records_stale(const DelayEstimate* fwd,
                                                    const DelayEstimate* rev,
                                                    sim::SimTime now) const {
    if (cfg_.link_staleness <= sim::SimDuration::zero()) return false;
    const sim::SimTime cutoff = window_cutoff(now, cfg_.link_staleness);
    if (fwd != nullptr && fwd->measured) return fwd->measured_at < cutoff;
    if (rev != nullptr && rev->measured) return rev->measured_at < cutoff;
    return true;  // never measured in either direction
  }

  // -- staleness queries (all no-ops unless config.link_staleness > 0) --

  /// True when the directed link's telemetry (or its symmetric reverse)
  /// has not been refreshed within the staleness window ending at `now`.
  /// Links that were never measured at all count as stale.
  [[nodiscard]] bool link_stale(core::NodeId from, core::NodeId to,
                                sim::SimTime now) const;

  /// True when any hop of the node path is stale.
  [[nodiscard]] bool path_stale(const std::vector<core::NodeId>& path,
                                sim::SimTime now) const;

  [[nodiscard]] const NetworkMapConfig& config() const { return cfg_; }
  [[nodiscard]] std::int64_t reports_ingested() const { return reports_; }
  /// The map's ingest epoch: "state as of the Nth report". Equals
  /// Epoch{reports_ingested()} — the stamp published snapshots carry.
  [[nodiscard]] Epoch ingest_epoch() const { return Epoch{reports_}; }
  /// INT stack entries discarded by ingest sanity checks (invalid device
  /// ids); the report's remaining entries are still used.
  [[nodiscard]] std::int64_t rejected_entries() const { return rejected_; }

 private:
  /// Full-structure consistency walk, compiled in only under
  /// INTSCHED_AUDIT: every learned link references nodes present in the
  /// inferred graph, and no freshness stamp or telemetry sample postdates
  /// the newest ingest time seen. `high_water` is that newest time —
  /// ingest() accepts out-of-order timestamps (late stragglers), so the
  /// current call's `now` alone would be too strict a bound.
  ///
  /// The walk is O(links + telemetry series). At Fig.-4 scale that was
  /// cheap enough to run after *every* ingest, but on TopologyGen-sized
  /// maps (thousands of links) per-report walks make the audit preset
  /// quadratic in the probe stream. finish_ingest therefore audits every
  /// report only while the map is small (<= kAuditFullWalkMaxLinks) and
  /// switches to a deterministic 1-in-kAuditSparsePeriod schedule beyond
  /// that.
  void audit_invariants(sim::SimTime high_water) const;
  static constexpr std::int64_t kAuditFullWalkMaxLinks = 256;
  static constexpr std::int64_t kAuditSparsePeriod = 64;
  void record_queue(QueueSeries& series, sim::SimTime now,
                    std::int64_t value);
  [[nodiscard]] static std::int64_t max_in_window(const QueueSeries& series,
                                                  sim::SimTime cutoff);

  /// `now - window`, saturating instead of overflowing when the window is
  /// wider than the whole representable time range. All freshness
  /// comparisons go through this so they stay in SimTime space.
  [[nodiscard]] static sim::SimTime window_cutoff(sim::SimTime now,
                                                  sim::SimDuration window);

  NetworkMapConfig cfg_;
  net::Graph graph_;
  std::unordered_map<LinkKey, DelayEstimate, LinkKeyHash> link_delay_;
  std::unordered_map<LinkKey, std::int32_t, LinkKeyHash> link_port_;
  std::unordered_map<PortKey, QueueSeries, PortKeyHash> port_queue_;
  std::unordered_map<core::NodeId, QueueSeries> device_queue_;
  std::unordered_map<core::NodeId, QueueSeries> device_avg_queue_;  // x100
  std::unordered_map<core::NodeId, QueueSeries> device_hop_latency_;  // ns
  std::int64_t reports_ = 0;
  std::int64_t rejected_ = 0;
#if INTSCHED_AUDIT_ENABLED
  /// Newest `now` ever passed to ingest(); audit bookkeeping only.
  sim::SimTime audit_ingest_hw_ = sim::SimTime::nanoseconds(
      std::numeric_limits<std::int64_t>::min());
#endif
};

}  // namespace intsched::core
