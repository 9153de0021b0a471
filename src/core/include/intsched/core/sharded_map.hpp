#pragma once

// Region-sharded scheduler state + two-level (metro) ranking: the one
// ranking route of the tree (DESIGN.md §10-§11). Every scheduler —
// SchedulerService's flat deployment (a one-region map), the serving
// frontend, the metro benches — ingests into a ShardedNetworkMap and
// ranks through the MetroView it publishes.
//
// A metro deployment (net::TopologyGen::ring_of_pods) has thousands of
// switches but strong locality: almost every link is intra-pod, and pods
// are delay-isolated (ring latency dominates any intra-pod path). A
// single flat NetworkMap makes every epoch's first rank() per origin pay
// a metro-wide Dijkstra. ShardedNetworkMap instead keeps one NetworkMap
// per region (pod) plus a small summary map holding only the
// cross-region links, snapshots each region independently (only regions
// whose telemetry actually moved are rebuilt — the others' RankSnapshots,
// Dijkstra memos included, are reused by pointer), and answers queries
// from an immutable MetroView in two levels: region-local shortest paths
// plus a summary-graph traversal whose nodes are only the border
// gateways. With one region the summary is empty and the view is exactly
// the flat ranking.
//
// This header is a sanctioned concurrent component: the atomics below
// are the published-view pointer (RCU-style read path) and the
// contention-free query counter.
// intsched-lint: allow-file(thread-share): concurrent facade by design;
//   see DESIGN.md §10-§11

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/network_map.hpp"
#include "intsched/core/rank_snapshot.hpp"
#include "intsched/core/ranking.hpp"
#include "intsched/core/thread_annot.hpp"
#include "intsched/net/topology_gen.hpp"

namespace intsched::core {

/// Executor hook for parallel region-snapshot rebuilds:
/// `fn(count, body)` must invoke `body(i)` exactly once for every
/// i in [0, count) — concurrently if it likes — and return only after all
/// calls completed. Results are written to index-addressed slots, so any
/// conforming executor (including plain serial) yields byte-identical
/// published views; exp::make_parallel_for adapts exp::SweepRunner.
/// Defined here (not in exp) so core does not depend upward.
using ParallelFor =
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

/// Static node -> region mapping the shards are keyed by. In the paper's
/// deployment shape this is provisioning data (which pod a device was
/// installed in), not something inferred from telemetry, so it is fixed
/// at construction. It is also the ingest boundary's id check: only a
/// provisioned id — one listed here with a region in [0, count) — ever
/// reaches a map, so every id a view knows indexes a dense table.
class RegionAssignment {
 public:
  RegionAssignment() = default;
  /// `by_node[i]` is NodeId{i}'s region; an entry outside [0, count)
  /// leaves that id unprovisioned.
  RegionAssignment(std::vector<core::RegionId> by_node, core::RegionId count);

  [[nodiscard]] static RegionAssignment from_topology(
      const net::GenTopology& topo);

  /// Ids [0, node_count) in region 0: the flat scheduler's deployment,
  /// where a one-region ShardedNetworkMap holds exactly what a single
  /// NetworkMap would (no summary links, no borders).
  [[nodiscard]] static RegionAssignment single_region(std::int32_t node_count);

  /// The id's region; kNoRegion for an unprovisioned id.
  [[nodiscard]] core::RegionId region_of(core::NodeId n) const {
    if (!n.valid() || n.index() >= by_node_.size()) return core::kNoRegion;
    return by_node_[n.index()];
  }
  [[nodiscard]] core::RegionId count() const { return count_; }

 private:
  std::vector<core::RegionId> by_node_;
  core::RegionId count_{0};
};

struct ShardedMapConfig {
  NetworkMapConfig map{};
  RankerConfig ranker{};
  /// Runs the per-region snapshot rebuilds at publish time. Null = serial.
  ParallelFor rebuild_executor = nullptr;
};

/// Observability for MetroView::pick's region pruning.
struct PickStats {
  std::int64_t regions_considered = 0;
  std::int64_t regions_pruned = 0;
  std::int64_t candidates_scored = 0;
};

/// Immutable two-level ranking view over one publish epoch: per-region
/// RankSnapshots, a frozen copy of the cross-region summary map, and the
/// augmented summary graph (border links + per-region transit edges whose
/// costs are region shortest-path distances).
///
/// Thread-safety model: everything is frozen at construction except the
/// per-origin query-context memo (and the region snapshots' Dijkstra
/// memos it reads), which fills lazily under a per-slot std::once_flag
/// (slot set fixed at construction). Region snapshots are shared with —
/// and may outlive — the publishing ShardedNetworkMap.
///
/// Determinism / exactness: every query runs the compiled rank-plane
/// kernel (DESIGN.md §15) over paths assembled from region + summary
/// shortest paths. When regions are delay-isolated and shortest paths are
/// unique (TopologyGen's jitter regime), the assembled path IS the flat
/// shortest path and the ranking agrees with the flat Algorithm 1 oracle
/// field-exactly; the general error bound is DESIGN.md §11.
class MetroView {
 public:
  /// Reusable buffers for the allocation-free query entry points
  /// (rank_into / rank_topk_into / pick_with). Every vector retains its
  /// capacity across calls, so after a warm-up pass over the working set
  /// (candidate counts seen), a query performs zero heap allocations (the
  /// hotpath-alloc lint + the serve allocation-counting test enforce
  /// this). One scratch per thread; never shared.
  struct RankScratch {
    /// pick_with's region grouping: candidates tagged with their region
    /// and original position, sorted to form contiguous groups.
    struct Grouped {
      core::RegionId region = core::kNoRegion;
      std::size_t index = 0;
      core::NodeId server = core::kInvalidNode;
    };
    std::vector<Grouped> grouped;
    /// One entry per region group: admissible delay lower bound plus the
    /// group's [begin, end) range in `grouped`.
    struct GroupBound {
      sim::SimDuration bound = sim::SimDuration::max();
      core::RegionId region = core::kNoRegion;
      std::size_t begin = 0;
      std::size_t end = 0;
    };
    std::vector<GroupBound> order;
    /// pick_with's top-1 ranking output (bandwidth / unknown origin).
    std::vector<ServerRank> ranked;
    /// Gather + selection scratch for the compiled-plane kernels
    /// (DESIGN.md §15); epoch-stamped, safe to reuse across origins.
    PlaneScratch plane;
    /// pick_with's per-group candidate ids for the plane argmin.
    std::vector<core::NodeId> group_servers;
  };

  MetroView(std::shared_ptr<const RegionAssignment> regions,
            std::vector<std::shared_ptr<const RankSnapshot>> region_snaps,
            std::shared_ptr<const NetworkMap> summary_map,
            std::vector<std::vector<core::NodeId>> borders_by_region,
            RankerConfig config, Epoch epoch);

  MetroView(const MetroView&) = delete;
  MetroView& operator=(const MetroView&) = delete;

  /// Two-level ranking with Algorithm 1's output contract (best first,
  /// server-id tie-break, unreachable last with delay = max /
  /// bandwidth = 0).
  [[nodiscard]] INTSCHED_HOTPATH std::vector<ServerRank> rank(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now) const;

  /// rank() into caller-owned buffers: byte-identical output (rank() is
  /// a thin wrapper over this), but all working memory comes from
  /// `scratch` and `out`, so a warmed-up caller allocates nothing. This
  /// is the ServeFrontend entry point (DESIGN.md §13).
  INTSCHED_HOTPATH void rank_into(core::NodeId origin,
                                  const core::NodeId* candidates,
                                  std::size_t count, RankingMetric metric,
                                  sim::SimTime now, RankScratch& scratch,
                                  std::vector<ServerRank>& out) const;

  /// rank_into limited to the best min(top_k, count) entries: the output
  /// is byte-identical to rank_into's first min(top_k, count) elements
  /// (the (key, server-id) total order makes the partial selection's
  /// prefix deterministic). Runs the fused plane kernel over the
  /// origin's plane — no path re-walk, one telemetry gather per distinct
  /// device — and is the ServeFrontend multi-result entry point
  /// (DESIGN.md §15). An origin the view cannot route from ranks over an
  /// empty plane: every candidate unreachable, in server-id order.
  INTSCHED_HOTPATH void rank_topk_into(core::NodeId origin,
                                       const core::NodeId* candidates,
                                       std::size_t count, RankingMetric metric,
                                       sim::SimTime now, std::size_t top_k,
                                       RankScratch& scratch,
                                       std::vector<ServerRank>& out) const;

  /// Best single candidate — exactly rank(...)[0] — but for the delay
  /// metric whole regions are pruned by lower bound (a region whose
  /// cheapest entry already costs more than the best full estimate seen
  /// cannot win), so most regions are never scored. `stats`, when
  /// non-null, reports how much work the pruning saved.
  [[nodiscard]] INTSCHED_HOTPATH std::optional<ServerRank> pick(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now,
      PickStats* stats = nullptr) const;

  /// pick() from caller-owned scratch — same answer, zero allocations
  /// once warm (the wrapper relationship mirrors rank/rank_into).
  [[nodiscard]] INTSCHED_HOTPATH std::optional<ServerRank> pick_with(
      core::NodeId origin, const core::NodeId* candidates, std::size_t count,
      RankingMetric metric, sim::SimTime now, RankScratch& scratch,
      PickStats* stats = nullptr) const;

  /// Publish epoch: the owning map's ingest epoch at publish time.
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] core::RegionId region_count() const {
    return core::RegionId{static_cast<std::int32_t>(region_snaps_.size())};
  }
  /// Region snapshot (never null for a valid region id).
  [[nodiscard]] const RankSnapshot& region_snapshot(core::RegionId r) const {
    return *region_snaps_[r.index()];
  }
  [[nodiscard]] const NetworkMap& summary_map() const { return *summary_map_; }
  [[nodiscard]] const std::vector<core::NodeId>& borders_of(
      core::RegionId r) const {
    return borders_by_region_[r.index()];
  }
  [[nodiscard]] const RankerConfig& config() const { return cfg_; }

 private:
  /// Everything the two-level query path derives, per origin, memoized
  /// once: the origin's region, its region-local shortest paths (borrowed
  /// from the region snapshot's memo), a Dijkstra run over the augmented
  /// summary graph with synthetic origin->border edges costed by the
  /// region-local distances, and the compiled plane.
  struct QueryContext {
    bool valid = false;
    core::RegionId region = core::kNoRegion;
    const net::ShortestPaths* sp0 = nullptr;
    net::ShortestPaths summary_sp;
    /// Admissible per-region delay lower bound (cheapest border arrival,
    /// 0 for the origin's own region), indexed by RegionId. Frozen at
    /// context build so pick_with reads one contiguous array instead of
    /// hashing into summary_sp per border per query.
    std::vector<sim::SimDuration> region_bound;
    /// Compiled rank plane (DESIGN.md §15): the two-level path to every
    /// node of the view, one row per slot in slot order, frozen into the
    /// CSR arena. Empty when the origin is not valid.
    RankPlane plane;
  };
  struct CtxSlot {
    mutable std::once_flag once;
    mutable QueryContext ctx;
  };

  /// Path-assembly buffers (cold: planes are compiled inside the
  /// once-per-origin context fill).
  struct PathScratch {
    std::vector<core::NodeId> spine;
    std::vector<core::NodeId> seg;
  };

  /// Adapter giving the plane compiler a NetworkMap-shaped resolution
  /// surface over the sharded state: same-region lookups hit the owning
  /// region snapshot's frozen map, cross-region link lookups hit the
  /// summary map, and per-device telemetry always lives in the device's
  /// region map (a cross-region link's egress port comes from the summary
  /// but the port's queue series from the region — the exact split flat
  /// ingest would have stored in one map).
  struct HierMap {
    const MetroView* view;
    [[nodiscard]] sim::SimDuration link_delay(core::NodeId from,
                                              core::NodeId to) const {
      return view->link_map(from, to).link_delay(from, to);
    }
    /// Owning map of the device's telemetry.
    [[nodiscard]] const NetworkMap& plane_device_map(core::NodeId d) const {
      return view->device_map(d);
    }
    /// Owning map of the link's staleness records.
    [[nodiscard]] const NetworkMap& plane_link_stale_map(core::NodeId from,
                                                         core::NodeId to) const {
      return view->link_map(from, to);
    }
    /// The egress port's queue series: same-region links resolve port
    /// and series in the region map; cross-region links take the port
    /// from the summary map but the series from `from`'s region map.
    [[nodiscard]] const NetworkMap::QueueSeries* plane_link_port_series(
        core::NodeId from, core::NodeId to) const {
      const core::RegionId ra = view->regions_->region_of(from);
      const core::RegionId rb = view->regions_->region_of(to);
      if (ra == rb && view->valid_region(ra)) {
        return view->region_map(ra).plane_link_port_series(from, to);
      }
      const std::int32_t port = view->summary_map_->egress_port(from, to);
      return port < 0 ? nullptr
                      : view->device_map(from).find_port_queue(from, port);
    }
  };

  /// Slot (= plane row) marker for an id the view knows nothing about.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  [[nodiscard]] bool valid_region(core::RegionId r) const {
    return r.valid() && r.index() < region_snaps_.size();
  }
  [[nodiscard]] const NetworkMap& region_map(core::RegionId r) const {
    return region_snaps_[r.index()]->map();
  }
  /// Map owning the directed link (region when both ends share one,
  /// summary otherwise).
  [[nodiscard]] const NetworkMap& link_map(core::NodeId from,
                                           core::NodeId to) const;
  /// Map owning the device's telemetry (its region; summary for
  /// region-less nodes).
  [[nodiscard]] const NetworkMap& device_map(core::NodeId device) const;

  /// Memoized query context for `origin` (nullptr when no region graph
  /// or summary graph knows the origin). Lock-free after the once-fill.
  [[nodiscard]] const QueryContext* query_context(core::NodeId origin) const;
  INTSCHED_COLDPATH void build_context(core::NodeId origin,
                                       QueryContext& ctx) const;

  /// Resolves one candidate to its concrete node path + baseline:
  /// region-local for same-region servers, otherwise cheapest entry
  /// border (summary distance + region distance, smallest border id on
  /// ties) with the summary path expanded through region snapshots.
  /// Writes into the reused `c` (path capacity retained).
  void candidate_path_into(const QueryContext& ctx, core::NodeId origin,
                           core::NodeId server, CandidatePath& c,
                           PathScratch& scratch) const;
  void expand_summary_path_into(const QueryContext& ctx, core::NodeId origin,
                                core::NodeId border,
                                std::vector<core::NodeId>& out,
                                PathScratch& scratch) const;

  std::shared_ptr<const RegionAssignment> regions_;
  std::vector<std::shared_ptr<const RankSnapshot>> region_snaps_;
  std::shared_ptr<const NetworkMap> summary_map_;
  std::vector<std::vector<core::NodeId>> borders_by_region_;
  RankerConfig cfg_;
  Epoch epoch_ = Epoch::none();
  /// Summary delay graph + per-region transit edges (border -> border
  /// within a region, costed by region shortest-path distance).
  net::Graph summary_graph_;
  /// Which region a transit edge crosses, for path expansion. Ordered map:
  /// built deterministically, read-only afterwards.
  std::map<std::pair<core::NodeId, core::NodeId>, core::RegionId> transit_region_;
  /// Every node known to any region graph or the summary graph,
  /// ascending: slot s (and row s of every plane) belongs to
  /// slot_nodes_[s].
  std::vector<core::NodeId> slot_nodes_;
  /// Dense node-index -> slot table (kNoSlot where absent); also the
  /// RowIndex every plane of this view is queried through. Provisioned
  /// ids only reach a map, so its size is bounded by the provisioning.
  std::vector<std::uint32_t> slot_of_;
  /// One context slot per entry of slot_nodes_; fixed at construction.
  std::unique_ptr<CtxSlot[]> slots_;
  /// The plane of an origin with no slot: no rows, so every candidate
  /// ranks unreachable.
  RankPlane empty_plane_;
};

/// Region-sharded scheduler map: ingest routes every learned link and
/// telemetry record to the owning shard under the writer lock, a publish
/// rebuilds only the region snapshots whose shard actually moved, and
/// rank()/pick() run lock-free over the published MetroView.
///
/// Equivalence contract (property-tested): for any report sequence,
/// rank() agrees with the flat Algorithm 1 oracle (tests/support) fed the
/// same reports — exactly for a one-region map, field-exactly when
/// regions are delay-isolated with unique shortest paths, within the
/// DESIGN.md §11 bound otherwise — and is byte-stable across rebuild
/// executors (serial, 2 threads, 8 threads).
class ShardedNetworkMap {
 public:
  explicit ShardedNetworkMap(RegionAssignment regions,
                             ShardedMapConfig config = {});

  ShardedNetworkMap(const ShardedNetworkMap&) = delete;
  ShardedNetworkMap& operator=(const ShardedNetworkMap&) = delete;

  /// Applies one probe report to the shards without publishing: readers
  /// keep the previous view until the next publish(). For writers that
  /// apply many reports between reads (the simulated scheduler).
  ///
  /// Ingest boundary: a report whose src or dst is unprovisioned is
  /// dropped whole (rejected_reports()); an INT entry naming an
  /// unprovisioned (or invalid) device is skipped and counted
  /// (rejected_entries()), the chain continuing from the last accepted
  /// entry exactly as NetworkMap::ingest does for an invalid id.
  INTSCHED_COLDPATH void apply(const telemetry::ProbeReport& report,
                               sim::SimTime now) INTSCHED_EXCLUDES(mutex_);

  /// Publishes a view of everything applied so far. Freshness contract:
  /// a view() acquired after publish() returns has epoch() ==
  /// reports_ingested() at that return.
  INTSCHED_COLDPATH void publish() INTSCHED_EXCLUDES(mutex_);

  /// apply() then publish(), in one critical section.
  INTSCHED_COLDPATH void ingest(const telemetry::ProbeReport& report,
                                sim::SimTime now) INTSCHED_EXCLUDES(mutex_);

  /// Coalesces a burst into one critical section + one publish.
  INTSCHED_COLDPATH void ingest_batch(
      const std::vector<telemetry::ProbeReport>& reports,
      sim::SimTime now) INTSCHED_EXCLUDES(mutex_);

  /// Lock-free two-level ranking over the current view.
  [[nodiscard]] std::vector<ServerRank> rank(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now) const INTSCHED_EXCLUDES(mutex_);

  /// Lock-free best-candidate query with region pruning (MetroView::pick).
  [[nodiscard]] std::optional<ServerRank> pick(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now,
      PickStats* stats = nullptr) const INTSCHED_EXCLUDES(mutex_);

  /// Changes Algorithm 1's k and republishes, so the very next view
  /// ranks under the new k (no ingest needed).
  INTSCHED_COLDPATH void set_k_factor(sim::SimDuration k)
      INTSCHED_EXCLUDES(mutex_);

  /// Currently published view; never null after construction.
  [[nodiscard]] std::shared_ptr<const MetroView> view() const {
    return view_.load(std::memory_order_acquire);
  }

  [[nodiscard]] core::RegionId region_count() const {
    return regions_->count();
  }
  /// Static provisioning lookup (no lock: the assignment is immutable).
  [[nodiscard]] core::RegionId region_of(core::NodeId n) const {
    return regions_->region_of(n);
  }
  [[nodiscard]] std::int64_t reports_ingested() const
      INTSCHED_EXCLUDES(mutex_);
  /// INT entries skipped at ingest: invalid or unprovisioned device ids.
  [[nodiscard]] std::int64_t rejected_entries() const
      INTSCHED_EXCLUDES(mutex_);
  /// Whole reports dropped at ingest: unprovisioned src or dst.
  [[nodiscard]] std::int64_t rejected_reports() const
      INTSCHED_EXCLUDES(mutex_);
  /// Region snapshots rebuilt over the map's lifetime — the sharding
  /// win: bounded by touched regions per publish, not region count.
  [[nodiscard]] std::int64_t region_snapshot_builds() const
      INTSCHED_EXCLUDES(mutex_);
  [[nodiscard]] std::int64_t view_publishes() const INTSCHED_EXCLUDES(mutex_);
  [[nodiscard]] std::int64_t queries_served() const {
    return queries_.load();  // seq_cst: cold observability read
  }

 private:
  INTSCHED_COLDPATH void apply_report_locked(
      const telemetry::ProbeReport& report,
      sim::SimTime now) INTSCHED_REQUIRES(mutex_);
  /// Routes one directed link observation to its owning shard and tracks
  /// border membership for cross-region links.
  INTSCHED_COLDPATH void learn_pair_locked(
      core::NodeId from, core::NodeId to, std::int32_t out_port,
      sim::SimDuration delay_sample, sim::SimTime now)
      INTSCHED_REQUIRES(mutex_);
  INTSCHED_COLDPATH void publish_locked() INTSCHED_REQUIRES(mutex_);

  /// Deep-snapshots one region shard. Called from rebuild-executor worker
  /// threads while the publisher blocks holding mutex_: workers read
  /// disjoint guarded shards and the publisher cannot proceed (or
  /// mutate) until the executor returns, so the access is race-free but
  /// outside what the static analysis can model.
  [[nodiscard]] INTSCHED_COLDPATH std::shared_ptr<const RankSnapshot>
  build_region_snapshot(std::size_t r) const
      INTSCHED_NO_THREAD_SAFETY_ANALYSIS;

  std::shared_ptr<const RegionAssignment> regions_;
  ShardedMapConfig cfg_;
  mutable AnnotatedMutex mutex_;
  std::vector<NetworkMap> region_maps_ INTSCHED_GUARDED_BY(mutex_);
  NetworkMap summary_map_ INTSCHED_GUARDED_BY(mutex_);
  /// Sorted unique border nodes (endpoints of cross-region links) per
  /// region, grown as links are learned.
  std::vector<std::vector<core::NodeId>> borders_by_region_
      INTSCHED_GUARDED_BY(mutex_);
  /// Last published snapshot per region, reused while the shard's ingest
  /// epoch is unchanged.
  std::vector<std::shared_ptr<const RankSnapshot>> last_snaps_
      INTSCHED_GUARDED_BY(mutex_);
  std::shared_ptr<const NetworkMap> last_summary_ INTSCHED_GUARDED_BY(mutex_);
  Epoch last_summary_epoch_ INTSCHED_GUARDED_BY(mutex_) = Epoch::none();
  /// Per-report scratch: which shards the current report touched
  /// (regions, then summary at index region_count()).
  std::vector<char> touched_ INTSCHED_GUARDED_BY(mutex_);
  std::int64_t reports_ INTSCHED_GUARDED_BY(mutex_) = 0;
  std::int64_t rejected_ INTSCHED_GUARDED_BY(mutex_) = 0;
  std::int64_t rejected_reports_ INTSCHED_GUARDED_BY(mutex_) = 0;
  std::int64_t snapshot_builds_ INTSCHED_GUARDED_BY(mutex_) = 0;
  std::int64_t publishes_ INTSCHED_GUARDED_BY(mutex_) = 0;
  /// Published view: written under mutex_ (release), read lock-free
  /// (acquire). Deliberately NOT GUARDED_BY — lock-free reads are the
  /// point; the atomic itself provides the ordering.
  std::atomic<std::shared_ptr<const MetroView>> view_;
  /// Contention-free query counter (relaxed bump on the hot path).
  mutable std::atomic<std::int64_t> queries_{0};
};

}  // namespace intsched::core
