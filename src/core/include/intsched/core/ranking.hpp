#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/network_map.hpp"
#include "intsched/sim/units.hpp"

namespace intsched::core {

/// Which metric the scheduler ranks candidate edge servers by.
enum class RankingMetric : std::uint8_t { kDelay, kBandwidth };

[[nodiscard]] const char* to_string(RankingMetric metric);

/// One ranked candidate, as returned to edge devices: both estimates are
/// always filled so devices can run custom selection (the paper's "second
/// option").
struct ServerRank {
  core::NodeId server = core::kInvalidNode;
  sim::SimDuration delay_estimate = sim::SimDuration::zero();
  sim::DataRate bandwidth_estimate = sim::DataRate::bits_per_second(0.0);
  /// Pure link-delay sum of the chosen path (no queue terms): the Dijkstra
  /// distance. Survives congestion-telemetry loss, so it is the fallback
  /// key when the path's queue telemetry is stale (Nearest-style ranking).
  sim::SimDuration baseline_delay = sim::SimDuration::zero();
  /// Outstanding tasks the scheduler believes the server holds; only
  /// non-zero when the compute-aware extension is active.
  std::int32_t outstanding_tasks = 0;
  /// True when at least one hop of the path has stale telemetry (only ever
  /// set when the NetworkMap's link_staleness window is enabled).
  bool stale = false;
};

/// Piecewise-linear mapping from observed max queue occupancy to estimated
/// egress utilization (the Fig. 3 relationship, inverted). Clamped at the
/// table's ends.
class QueueToUtilization {
 public:
  struct Point {
    double max_queue_pkts;
    double utilization;  ///< in [0, 1]
  };

  /// Default calibration derived from this repo's own Fig. 3 reproduction:
  /// small standing queues appear near 50% utilization; tens of packets
  /// mean saturation.
  QueueToUtilization();
  explicit QueueToUtilization(std::vector<Point> points);

  [[nodiscard]] double utilization(std::int64_t max_queue_pkts) const;

 private:
  /// One interpolation segment between adjacent table points, with the
  /// endpoint differences precomputed at construction. The lerp runs the
  /// exact arithmetic the former per-call scan ran — `lo_u + ((q - lo_x)
  /// / dx) * du` with dx/du the same `hi - lo` doubles — so results stay
  /// bit-identical; only the segment *selection* changed (binary search
  /// on hi_x instead of a linear point scan).
  struct Segment {
    double lo_x = 0.0;
    double lo_u = 0.0;
    double hi_x = 0.0;  ///< right endpoint abscissa: the search key
    double dx = 0.0;    ///< hi_x - lo_x
    double du = 0.0;    ///< hi_u - lo_u
  };

  std::vector<Point> points_;      ///< sorted by max_queue_pkts
  std::vector<Segment> segments_;  ///< points_.size() - 1 entries
};

/// Which per-hop occupancy statistic Algorithm 1 consumes. The paper uses
/// the maximum ("we rely on maximum queue length value"); the average is
/// implemented for the ablation reproducing the paper's finding that it
/// "leads to inconclusive results".
enum class QueueStatistic : std::uint8_t {
  kMaximum,   ///< the paper's choice: k * max queue occupancy
  kAverage,   ///< the paper's rejected alternative: k * mean occupancy
  /// Directly measured max in-device dwell time (no k at all) — what a
  /// full INT deployment would supply.
  kMeasuredHopLatency,
};

struct RankerConfig {
  /// Algorithm 1's queue-occupancy-to-latency conversion factor k. The
  /// paper fixes k = 20 ms and notes it is a congestion-identification
  /// weight, deliberately large, rather than a calibrated per-packet
  /// queueing delay.
  sim::SimDuration k_factor = sim::SimDuration::millis(20);
  QueueStatistic queue_statistic = QueueStatistic::kMaximum;
  QueueToUtilization queue_to_utilization{};
  /// Compile published snapshots' per-origin path memos into RankPlanes
  /// (flat CSR arenas scored by the fused kernel — DESIGN.md §15). Off
  /// switches every query to the uncompiled reference path; the plane /
  /// legacy equivalence property suite runs both and byte-compares.
  bool compile_rank_plane = true;
};

/// One calibration observation: a queue occupancy and the end-to-end
/// delay inflation (over the idle baseline) seen at the same time.
struct KCalibrationSample {
  double max_queue_pkts = 0.0;
  // intsched-lint: allow(raw-unit): least-squares input, fractional ms
  double extra_delay_ms = 0.0;
};

/// Paper §III-C future work ("we leave its automation and fine-tuning as
/// a future work"): least-squares fit of extra_delay = k * max_queue
/// through the origin, from Fig.-3-style calibration measurements.
/// Returns the paper's default (20 ms) when the data carries no signal.
[[nodiscard]] sim::SimDuration estimate_k_factor(
    const std::vector<KCalibrationSample>& samples);

// -- pure ranking core (no hidden state) ------------------------------------
//
// Every input is explicit: the map, the config, and the resolved
// candidate paths. MetroView's uncompiled reference path and the flat
// Algorithm 1 oracle in tests/support both call these, and the compiled
// plane kernels below replay the same arithmetic, so every path produces
// identical ServerRank vectors by construction rather than by parallel
// maintenance.
//
// The estimators are templates over a map-like type so the two-level
// path can substitute a hierarchical lookup (region shard + summary map,
// see sharded_map.hpp) while running the *same* arithmetic in the same
// order — the flat-vs-sharded equivalence property tests depend on
// bit-identical doubles, not just agreement in spirit. A MapLike
// provides NetworkMap's query surface: link_delay, device_max_queue,
// device_avg_queue, device_hop_latency, link_max_queue, path_stale, and
// config().

/// Algorithm 1 for a single path: sum of link-delay estimates plus
/// k * maxQueue (per cfg.queue_statistic) for every intermediate device.
template <typename MapLike>
[[nodiscard]] sim::SimDuration estimate_path_delay(
    const MapLike& map, const RankerConfig& cfg,
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
template <typename MapLike>
[[nodiscard]] sim::DataRate estimate_path_bandwidth(
    const MapLike& map, const RankerConfig& cfg,
    const std::vector<core::NodeId>& path, sim::SimTime now) {
  assert(path.size() >= 2);
  // The nominal capacity is invariant across the loop — hoist the
  // config chase out of the per-link body.
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

/// One candidate with its already-resolved path: what rank_paths_into
/// scores.
/// An empty path (or any with fewer than two nodes) means unreachable.
struct CandidatePath {
  core::NodeId server = core::kInvalidNode;
  std::vector<core::NodeId> path{};
  /// Pure link-delay distance of `path` (the Dijkstra distance).
  sim::SimDuration baseline_delay = sim::SimDuration::max();
};

/// Scores and sorts pre-resolved candidate paths into `out` (cleared
/// first), best first (ascending delay / descending bandwidth, server id
/// as the deterministic tie-break). Unreachable candidates rank last.
/// This is the single scoring + ordering implementation behind every
/// ranking entry point; the pointer+count surface (rather than a vector)
/// lets the serving path score a reused scratch prefix, and `out`
/// retains its capacity across calls so a warmed-up caller allocates
/// nothing (DESIGN.md §13).
template <typename MapLike>
INTSCHED_HOTPATH void rank_paths_into(const MapLike& map,
                                      const RankerConfig& cfg,
                                      const CandidatePath* candidates,
                                      std::size_t count, RankingMetric metric,
                                      sim::SimTime now,
                                      std::vector<ServerRank>& out) {
  // Fill by index into out's own storage: clear + resize reuses the
  // retained capacity (value-initialized entries, so defaulted fields
  // need no per-entry reset), and the reserve makes the no-reallocation
  // guarantee explicit for warmed-up callers — there is no ServerRank
  // staging copy per candidate.
  out.clear();
  out.reserve(count);
  out.resize(count);
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

  const auto by_delay = [](const ServerRank& a, const ServerRank& b) {
    if (a.delay_estimate != b.delay_estimate) {
      return a.delay_estimate < b.delay_estimate;
    }
    return a.server < b.server;
  };
  const auto by_bandwidth = [](const ServerRank& a, const ServerRank& b) {
    if (a.bandwidth_estimate != b.bandwidth_estimate) {
      return a.bandwidth_estimate > b.bandwidth_estimate;
    }
    return a.server < b.server;
  };
  if (metric == RankingMetric::kDelay) {
    std::sort(out.begin(), out.end(), by_delay);
  } else {
    std::sort(out.begin(), out.end(), by_bandwidth);
  }
}

// -- compiled rank planes (DESIGN.md §15) -----------------------------------
//
// A RankPlane "compiles" one origin's candidate paths — frozen for the
// lifetime of the snapshot that owns them — into a flat CSR arena: one
// row per candidate server holding the precomputed static link-delay sum
// and the path's device/link index spans into two deduplicated tables.
// Per-query work then collapses to one queue-window gather per *distinct*
// device (epoch-stamped marks, no per-query clearing) plus a fused
// structure-of-arrays scoring loop over the rows; no path vector is ever
// re-walked and no link-delay sum recomputed on the hot path.
//
// Determinism contract: for every (candidates, metric, statistic, now)
// the kernels below produce ServerRank output byte-identical to
// rank_paths_into over the paths the plane was compiled from. The
// argument, per field:
//  * delay — the per-hop terms are int64 nanosecond values; summing the
//    gathered per-device terms in span (= path) order runs the same
//    additions in the same order as estimate_path_delay, and kAverage's
//    per-hop double->int64 rounding happens inside the gathered term
//    exactly as it does per hop in the estimator;
//  * bandwidth — min over per-link availabilities of doubles computed by
//    the same expression; min is order-insensitive and duplicate links
//    contribute the same double twice;
//  * ordering — selection sorts candidate indices by (key, server id),
//    a total order, so a top-k partial sort's prefix is byte-identical
//    to the full sort's prefix, and the k=1 argmin is its first element.

struct RankPlane {
  /// row_of sentinel: node has no compiled row.
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  struct Row {
    core::NodeId server = core::kInvalidNode;
    /// Sum of the path's link-delay estimates, frozen at build time (the
    /// delay graph never changes within a snapshot).
    sim::SimDuration static_delay = sim::SimDuration::zero();
    /// Pure Dijkstra distance (CandidatePath::baseline_delay).
    sim::SimDuration baseline_delay = sim::SimDuration::max();
    /// False = unreachable (path had fewer than two nodes): ranked last
    /// with delay = max / bandwidth = 0, exactly as rank_paths_into.
    bool reachable = false;
    /// [begin, end) span into dev_ix: intermediate devices, path order.
    std::uint32_t dev_begin = 0;
    std::uint32_t dev_end = 0;
    /// [begin, end) span into link_ix: every path link, path order. The
    /// bandwidth estimator charges links from the first switch onward —
    /// [link_begin + 1, link_end) — while staleness scans the full span.
    std::uint32_t link_begin = 0;
    std::uint32_t link_end = 0;
  };

  /// Resolved telemetry handle for one deduplicated device: the owning
  /// map (flat map, or the device's region map under MetroView) plus the
  /// series matching the compiling config's queue statistic, resolved
  /// once so the per-query gather is pointer-direct — no region routing,
  /// no hash find. Valid exactly as long as the frozen snapshot the
  /// plane was compiled from (the plane and the maps share an owner).
  struct DevRef {
    const NetworkMap* map = nullptr;
    const NetworkMap::QueueSeries* series = nullptr;
  };
  /// Resolved handles replaying link_max_queue (port series if fresh,
  /// else `from`'s device register — both owned by `queue_map`) and
  /// link_stale (forward/reverse delay records under `stale_map`).
  struct LinkRef {
    const NetworkMap* queue_map = nullptr;
    const NetworkMap::QueueSeries* port_series = nullptr;
    const NetworkMap::QueueSeries* dev_series = nullptr;
    const NetworkMap* stale_map = nullptr;
    const NetworkMap::DelayEstimate* fwd = nullptr;
    const NetworkMap::DelayEstimate* rev = nullptr;
  };

  std::vector<Row> rows;
  std::vector<std::uint32_t> dev_ix;   ///< indices into devices
  std::vector<std::uint32_t> link_ix;  ///< indices into links
  std::vector<core::NodeId> devices;   ///< deduplicated device table
  std::vector<LinkKey> links;          ///< deduplicated directed links
  std::vector<DevRef> dev_refs;        ///< parallel to devices
  std::vector<LinkRef> link_refs;      ///< parallel to links
  /// Dense node-index -> row lookup (kNoRow where absent).
  std::vector<std::uint32_t> row_of;
  /// False until sealed, or when the node-id space is too sparse for the
  /// dense lookup; callers fall back to the uncompiled reference path.
  bool enabled = false;

  [[nodiscard]] const Row* row_for(core::NodeId n) const {
    if (!n.valid() || n.index() >= row_of.size()) return nullptr;
    const std::uint32_t r = row_of[n.index()];
    return r == kNoRow ? nullptr : &rows[r];
  }
};

/// Accumulates compiled rows (dedup tables included) and seals them into
/// a RankPlane. Cold by construction: planes are built inside the
/// per-origin once-only memo fill, never on the query path.
class RankPlaneBuilder {
 public:
  /// `statistic` must be the queue statistic of the RankerConfig the
  /// plane will be queried under (the snapshot's own config): device
  /// series are resolved for exactly that statistic at compile time.
  explicit RankPlaneBuilder(QueueStatistic statistic)
      : stat_{statistic} {}

  /// Compiles one candidate path. `path` and `baseline` follow the
  /// CandidatePath contract (fewer than two nodes = unreachable); static
  /// link delays and the resolved telemetry handles are read from `map`,
  /// which must be the same frozen MapLike queries will run against.
  template <typename MapLike>
  INTSCHED_COLDPATH void add_path(const MapLike& map, core::NodeId server,
                                  const std::vector<core::NodeId>& path,
                                  sim::SimDuration baseline) {
    RankPlane::Row row;
    row.server = server;
    if (path.size() >= 2) {
      row.reachable = true;
      row.baseline_delay = baseline;
      sim::SimDuration static_delay = sim::SimDuration::zero();
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        static_delay += map.link_delay(path[i], path[i + 1]);
      }
      row.static_delay = static_delay;
      row.dev_begin = static_cast<std::uint32_t>(plane_.dev_ix.size());
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        plane_.dev_ix.push_back(intern_device(map, path[i]));
      }
      row.dev_end = static_cast<std::uint32_t>(plane_.dev_ix.size());
      row.link_begin = static_cast<std::uint32_t>(plane_.link_ix.size());
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        plane_.link_ix.push_back(intern_link(map, path[i], path[i + 1]));
      }
      row.link_end = static_cast<std::uint32_t>(plane_.link_ix.size());
    }
    plane_.rows.push_back(row);
  }

  /// Seals and returns the plane, leaving the builder reusable. The
  /// plane stays disabled (enabled = false, callers fall back) when it
  /// has no rows or the dense row lookup would be mostly holes — node
  /// ids far sparser than 8x the row count plus slack.
  [[nodiscard]] INTSCHED_COLDPATH RankPlane finish() {
    RankPlane plane = std::move(plane_);
    plane_ = RankPlane{};
    dev_id_.clear();
    link_id_.clear();
    std::size_t max_index = 0;
    for (const RankPlane::Row& row : plane.rows) {
      if (row.server.valid()) {
        max_index = std::max(max_index, row.server.index());
      }
    }
    if (plane.rows.empty() || max_index + 1 > 8 * plane.rows.size() + 1024) {
      return plane;
    }
    plane.row_of.assign(max_index + 1, RankPlane::kNoRow);
    for (std::size_t r = 0; r < plane.rows.size(); ++r) {
      const core::NodeId n = plane.rows[r].server;
      if (n.valid()) {
        plane.row_of[n.index()] = static_cast<std::uint32_t>(r);
      }
    }
    plane.enabled = true;
    return plane;
  }

 private:
  /// First sighting of a device resolves its telemetry handle: owning
  /// map per the MapLike's routing, series per the compiling statistic.
  template <typename MapLike>
  [[nodiscard]] std::uint32_t intern_device(const MapLike& map,
                                            core::NodeId d) {
    const auto [it, inserted] = dev_id_.try_emplace(
        d, static_cast<std::uint32_t>(plane_.devices.size()));
    if (inserted) {
      plane_.devices.push_back(d);
      RankPlane::DevRef ref;
      const NetworkMap& owner = map.plane_device_map(d);
      ref.map = &owner;
      switch (stat_) {
        case QueueStatistic::kMaximum:
          ref.series = owner.find_device_queue(d);
          break;
        case QueueStatistic::kAverage:
          ref.series = owner.find_device_avg_queue(d);
          break;
        case QueueStatistic::kMeasuredHopLatency:
          ref.series = owner.find_device_hop_latency(d);
          break;
      }
      plane_.dev_refs.push_back(ref);
    }
    return it->second;
  }
  /// First sighting of a directed link resolves link_max_queue's two
  /// candidate series (port register + device fallback, both under the
  /// device's owning map) and link_stale's forward/reverse delay records
  /// (under the link's owning map).
  template <typename MapLike>
  [[nodiscard]] std::uint32_t intern_link(const MapLike& map,
                                          core::NodeId from, core::NodeId to) {
    const auto [it, inserted] = link_id_.try_emplace(
        LinkKey{from, to}, static_cast<std::uint32_t>(plane_.links.size()));
    if (inserted) {
      plane_.links.push_back(LinkKey{from, to});
      RankPlane::LinkRef ref;
      const NetworkMap& qm = map.plane_device_map(from);
      ref.queue_map = &qm;
      ref.port_series = map.plane_link_port_series(from, to);
      ref.dev_series = qm.find_device_queue(from);
      const NetworkMap& sm = map.plane_link_stale_map(from, to);
      ref.stale_map = &sm;
      ref.fwd = sm.find_link_delay(from, to);
      ref.rev = sm.find_link_delay(to, from);
      plane_.link_refs.push_back(ref);
    }
    return it->second;
  }

  RankPlane plane_;
  QueueStatistic stat_;
  std::unordered_map<core::NodeId, std::uint32_t> dev_id_;
  std::unordered_map<LinkKey, std::uint32_t, LinkKeyHash> link_id_;
};

/// Per-thread gather + selection scratch for the plane kernels. Every
/// vector grows monotonically (capacity retained across queries *and*
/// across planes — index spaces differ per plane, but the epoch stamp
/// makes stale marks unreadable); nothing is cleared per query.
struct PlaneScratch {
  /// Gather generation stamp (not a snapshot Epoch: it orders nothing
  /// across threads or publishes, it only invalidates this scratch's own
  /// marks between queries).
  std::uint64_t stamp = 0;
  std::vector<std::uint64_t> dev_mark;
  /// Gathered per-device hop-delay term under the query's statistic.
  std::vector<sim::SimDuration> dev_term;
  std::vector<std::uint64_t> link_mark;
  std::vector<double> link_avail;  ///< available bps, gathered per link
  std::vector<std::uint8_t> link_is_stale;
  /// Per-candidate selection state (parallel to the candidate array).
  std::vector<sim::SimDuration> delay_key;
  std::vector<double> bw_key;
  std::vector<std::uint32_t> sel;

  /// Starts one query against `plane`: bumps the gather epoch and grows
  /// the mark arrays to the plane's table sizes. Grow-only, so a warmed
  /// serving thread never reallocates here.
  INTSCHED_HOTPATH void begin(const RankPlane& plane) {
    if (dev_mark.size() < plane.devices.size()) {
      dev_mark.resize(plane.devices.size(), 0);
      dev_term.resize(plane.devices.size(), sim::SimDuration::zero());
    }
    if (link_mark.size() < plane.links.size()) {
      link_mark.resize(plane.links.size(), 0);
      link_avail.resize(plane.links.size(), 0.0);
      link_is_stale.resize(plane.links.size(), 0);
    }
    ++stamp;
  }
};

namespace plane_detail {

/// Gathered hop-delay term for unique-device index `d`: one queue-window
/// query per distinct device per plane query, whatever the candidate
/// fan-in — evaluated through the ref resolved at compile time, so the
/// gather is pointer-direct (no region routing, no hash find). The term
/// is the exact per-hop contribution of estimate_path_delay under
/// cfg.queue_statistic (kAverage's /100.0 mean scaling and double ->
/// int64 rounding included), so summing gathered terms in span order
/// reproduces the estimator's arithmetic bit-for-bit.
INTSCHED_HOTPATH inline sim::SimDuration dev_term(const RankerConfig& cfg,
                                                  const RankPlane& plane,
                                                  PlaneScratch& scratch,
                                                  std::uint32_t d,
                                                  sim::SimTime now) {
  if (scratch.dev_mark[d] != scratch.stamp) {
    scratch.dev_mark[d] = scratch.stamp;
    const RankPlane::DevRef& ref = plane.dev_refs[d];
    sim::SimDuration term = sim::SimDuration::zero();
    switch (cfg.queue_statistic) {
      case QueueStatistic::kMaximum:
        term = cfg.k_factor * ref.map->window_max_of(ref.series, now);
        break;
      case QueueStatistic::kAverage:
        term = sim::SimDuration::nanos(static_cast<std::int64_t>(
            static_cast<double>(cfg.k_factor.ns()) *
            (static_cast<double>(ref.map->window_max_of(ref.series, now)) /
             100.0)));
        break;
      case QueueStatistic::kMeasuredHopLatency:
        term =
            sim::SimDuration::nanos(ref.map->window_max_of(ref.series, now));
        break;
    }
    scratch.dev_term[d] = term;
  }
  return scratch.dev_term[d];
}

/// Gathers availability (and, when staleness tracking is on, the stale
/// bit) for unique-link index `l` — once per distinct link per query,
/// replaying link_max_queue (fresh port series, else device register)
/// and link_stale over the resolved handles.
INTSCHED_HOTPATH inline void gather_link(const RankerConfig& cfg,
                                         const RankPlane& plane,
                                         PlaneScratch& scratch, std::uint32_t l,
                                         sim::SimTime now, double nominal,
                                         bool staleness_on) {
  if (scratch.link_mark[l] == scratch.stamp) return;
  scratch.link_mark[l] = scratch.stamp;
  const RankPlane::LinkRef& ref = plane.link_refs[l];
  const std::int64_t q =
      ref.queue_map->port_series_fresh(ref.port_series, now)
          ? ref.queue_map->window_max_of(ref.port_series, now)
          : ref.queue_map->window_max_of(ref.dev_series, now);
  const double util = cfg.queue_to_utilization.utilization(q);
  scratch.link_avail[l] = nominal * (1.0 - util);
  scratch.link_is_stale[l] =
      staleness_on && ref.stale_map->records_stale(ref.fwd, ref.rev, now) ? 1
                                                                          : 0;
}

/// Row's delay key: static prefix + gathered per-device terms in span
/// order. Unreachable rows key at SimDuration::max(), matching the
/// uncompiled path's unreachable delay.
INTSCHED_HOTPATH inline sim::SimDuration delay_key_of(
    const RankerConfig& cfg, const RankPlane& plane, PlaneScratch& scratch,
    const RankPlane::Row* row, sim::SimTime now) {
  if (row == nullptr || !row->reachable) return sim::SimDuration::max();
  sim::SimDuration key = row->static_delay;
  for (std::uint32_t ix = row->dev_begin; ix < row->dev_end; ++ix) {
    key += dev_term(cfg, plane, scratch, plane.dev_ix[ix], now);
  }
  return key;
}

/// Row's bandwidth key: min availability over the charged link span
/// (first switch onward), starting at the nominal capacity. Unreachable
/// rows key at 0 bps.
INTSCHED_HOTPATH inline double bw_key_of(const RankerConfig& cfg,
                                         const RankPlane& plane,
                                         PlaneScratch& scratch,
                                         const RankPlane::Row* row,
                                         sim::SimTime now, double nominal,
                                         bool staleness_on) {
  if (row == nullptr || !row->reachable) return 0.0;
  double min_bps = nominal;
  for (std::uint32_t ix = row->link_begin + 1; ix < row->link_end; ++ix) {
    gather_link(cfg, plane, scratch, plane.link_ix[ix], now, nominal,
                staleness_on);
    min_bps = std::min(min_bps, scratch.link_avail[plane.link_ix[ix]]);
  }
  return min_bps;
}

/// Materializes the full ServerRank for a selected row — every field,
/// including the ones the query's metric did not need for ordering.
/// `server` is the candidate id (used verbatim when the row is absent).
INTSCHED_HOTPATH inline void fill_rank(const RankerConfig& cfg,
                                       const RankPlane& plane,
                                       PlaneScratch& scratch,
                                       const RankPlane::Row* row,
                                       core::NodeId server,
                                       sim::SimDuration delay, sim::SimTime now,
                                       double nominal, bool staleness_on,
                                       ServerRank& r) {
  r.server = server;
  r.outstanding_tasks = 0;
  if (row == nullptr || !row->reachable) {
    r.delay_estimate = sim::SimDuration::max();
    r.bandwidth_estimate = sim::DataRate::bits_per_second(0.0);
    r.baseline_delay = sim::SimDuration::max();
    r.stale = false;
    return;
  }
  r.delay_estimate = delay;
  r.baseline_delay = row->baseline_delay;
  r.bandwidth_estimate = sim::DataRate::bits_per_second(
      bw_key_of(cfg, plane, scratch, row, now, nominal, staleness_on));
  bool stale = false;
  if (staleness_on) {
    for (std::uint32_t ix = row->link_begin; ix < row->link_end; ++ix) {
      gather_link(cfg, plane, scratch, plane.link_ix[ix], now, nominal,
                  staleness_on);
      stale = stale || scratch.link_is_stale[plane.link_ix[ix]] != 0;
    }
  }
  r.stale = stale;
}

}  // namespace plane_detail

/// Fused plane ranking: scores `candidates` against the compiled plane
/// and writes the best min(top_k, count) entries — sorted exactly as
/// rank_paths_into sorts — into `out`. top_k = count gives the full
/// ranking; smaller top_k uses a deterministic partial selection whose
/// prefix is byte-identical to the full sort (the comparator's
/// (key, server id) total order leaves no ties for an unstable algorithm
/// to permute observably). All working memory comes from `scratch`.
template <typename MapLike>
INTSCHED_HOTPATH void rank_plane_into(const MapLike& map,
                                      const RankerConfig& cfg,
                                      const RankPlane& plane,
                                      const core::NodeId* candidates,
                                      std::size_t count, RankingMetric metric,
                                      sim::SimTime now, std::size_t top_k,
                                      PlaneScratch& scratch,
                                      std::vector<ServerRank>& out) {
  scratch.begin(plane);
  const double nominal = map.config().nominal_capacity.bps();
  const bool staleness_on =
      map.config().link_staleness > sim::SimDuration::zero();

  if (scratch.sel.size() < count) {
    scratch.sel.resize(count, 0);
    scratch.delay_key.resize(count, sim::SimDuration::zero());
    scratch.bw_key.resize(count, 0.0);
  }
  for (std::size_t i = 0; i < count; ++i) {
    scratch.sel[i] = static_cast<std::uint32_t>(i);
    const RankPlane::Row* row = plane.row_for(candidates[i]);
    if (metric == RankingMetric::kDelay) {
      scratch.delay_key[i] =
          plane_detail::delay_key_of(cfg, plane, scratch, row, now);
    } else {
      scratch.bw_key[i] = plane_detail::bw_key_of(cfg, plane, scratch, row,
                                                  now, nominal, staleness_on);
    }
  }

  const auto sel_begin = scratch.sel.begin();
  const auto sel_end = sel_begin + static_cast<std::ptrdiff_t>(count);
  const std::size_t m = std::min(top_k, count);
  if (metric == RankingMetric::kDelay) {
    const auto by_delay = [&](std::uint32_t a, std::uint32_t b) {
      if (scratch.delay_key[a] != scratch.delay_key[b]) {
        return scratch.delay_key[a] < scratch.delay_key[b];
      }
      return candidates[a] < candidates[b];
    };
    if (m < count) {
      std::partial_sort(sel_begin,
                        sel_begin + static_cast<std::ptrdiff_t>(m), sel_end,
                        by_delay);
    } else {
      std::sort(sel_begin, sel_end, by_delay);
    }
  } else {
    const auto by_bandwidth = [&](std::uint32_t a, std::uint32_t b) {
      if (scratch.bw_key[a] != scratch.bw_key[b]) {
        return scratch.bw_key[a] > scratch.bw_key[b];
      }
      return candidates[a] < candidates[b];
    };
    if (m < count) {
      std::partial_sort(sel_begin,
                        sel_begin + static_cast<std::ptrdiff_t>(m), sel_end,
                        by_bandwidth);
    } else {
      std::sort(sel_begin, sel_end, by_bandwidth);
    }
  }

  out.clear();
  out.reserve(m);
  out.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t i = scratch.sel[j];
    const core::NodeId server = candidates[i];
    const RankPlane::Row* row = plane.row_for(server);
    const sim::SimDuration delay =
        metric == RankingMetric::kDelay
            ? scratch.delay_key[i]
            : plane_detail::delay_key_of(cfg, plane, scratch, row, now);
    plane_detail::fill_rank(cfg, plane, scratch, row, server, delay, now,
                            nominal, staleness_on, out[j]);
  }
}

/// k=1 plane selection core for the delay metric: continues a running
/// min over the (delay ns, server id) lexicographic key — `best_key` /
/// `best_server` are read-modify-write, so a caller scanning several
/// candidate groups under one gather epoch carries the incumbent across
/// groups and every group after the first is scored against an already
/// tight bound. The select order IS rank_paths_into's (delay, server id)
/// comparator, so the final incumbent equals the full sort's front.
///
/// Bound short-circuit: a row's delay key is its static prefix plus
/// non-negative queue terms, so a static prefix already above the
/// incumbent cannot win; the row is skipped before its device-span walk
/// and gathers. Strict >, and the incumbent only tightens, so a skipped
/// row is strictly worse than the final winner even on key ties —
/// selection stays exact, id tie-breaks included.
INTSCHED_HOTPATH inline void pick_plane_argmin(
    const RankerConfig& cfg, const RankPlane& plane,
    const core::NodeId* servers, std::size_t count, sim::SimTime now,
    PlaneScratch& scratch, std::uint64_t& best_key,
    std::uint32_t& best_server) {
  for (std::size_t i = 0; i < count; ++i) {
    const RankPlane::Row* row = plane.row_for(servers[i]);
    if (row != nullptr && row->reachable &&
        static_cast<std::uint64_t>(row->static_delay.ns()) > best_key) {
      continue;
    }
    const sim::SimDuration key =
        plane_detail::delay_key_of(cfg, plane, scratch, row, now);
    // Delay ns is non-negative (SimDuration::max().ns() == INT64_MAX for
    // unreachable rows), so the unsigned compare is order-preserving.
    const auto cand_key = static_cast<std::uint64_t>(key.ns());
    const auto sid = static_cast<std::uint32_t>(servers[i].value());
    const bool better =
        cand_key < best_key || (cand_key == best_key && sid < best_server);
    best_key = better ? cand_key : best_key;
    best_server = better ? sid : best_server;
  }
}

/// Single-group k=1 plane selection: argmin from a fresh incumbent, then
/// one full ServerRank materialization for the winner. Identical result
/// to rank_plane_into(..., top_k = 1)[0]. Precondition: count >= 1 and
/// scratch.begin(plane) already called for this query.
template <typename MapLike>
[[nodiscard]] INTSCHED_HOTPATH ServerRank pick_plane_min_delay(
    const MapLike& map, const RankerConfig& cfg, const RankPlane& plane,
    const core::NodeId* servers, std::size_t count, sim::SimTime now,
    PlaneScratch& scratch) {
  assert(count >= 1);
  std::uint64_t best_key = ~std::uint64_t{0};
  std::uint32_t best_server = 0xffffffffu;
  pick_plane_argmin(cfg, plane, servers, count, now, scratch, best_key,
                    best_server);
  const core::NodeId winner{static_cast<std::int32_t>(best_server)};
  const sim::SimDuration delay =
      sim::SimDuration::nanos(static_cast<std::int64_t>(best_key));
  const double nominal = map.config().nominal_capacity.bps();
  const bool staleness_on =
      map.config().link_staleness > sim::SimDuration::zero();
  ServerRank r;
  plane_detail::fill_rank(cfg, plane, scratch, plane.row_for(winner), winner,
                          delay, now, nominal, staleness_on, r);
  return r;
}

}  // namespace intsched::core
