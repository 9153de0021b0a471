#include "intsched/core/sharded_map.hpp"

#include <algorithm>
#include <cassert>

namespace intsched::core {

RegionAssignment RegionAssignment::from_topology(
    const net::GenTopology& topo) {
  std::vector<core::RegionId> by_node;
  by_node.reserve(topo.nodes.size());
  for (const net::GenNode& node : topo.nodes) {
    by_node.push_back(node.region);
  }
  return RegionAssignment{std::move(by_node), topo.regions};
}

// ---------------------------------------------------------------------------
// MetroView

MetroView::MetroView(
    std::shared_ptr<const RegionAssignment> regions,
    std::vector<std::shared_ptr<const RankSnapshot>> region_snaps,
    std::shared_ptr<const NetworkMap> summary_map,
    std::vector<std::vector<core::NodeId>> borders_by_region,
    RankerConfig config, Epoch epoch)
    : regions_{std::move(regions)},
      region_snaps_{std::move(region_snaps)},
      summary_map_{std::move(summary_map)},
      borders_by_region_{std::move(borders_by_region)},
      cfg_{std::move(config)},
      epoch_{epoch} {
  // Base summary graph: the cross-region links (deterministically sorted
  // by delay_graph()).
  summary_graph_ = summary_map_->delay_graph();

  // Transit edges: for every region, border-to-border traversal at the
  // region's shortest-path cost. Regions ascend and borders are sorted,
  // so construction order — and therefore the graph — is deterministic.
  for (std::size_t r = 0; r < region_snaps_.size(); ++r) {
    const RankSnapshot& snap = *region_snaps_[r];
    const std::vector<core::NodeId>& borders = borders_by_region_[r];
    for (const core::NodeId b1 : borders) {
      const net::ShortestPaths* sp = snap.paths_from(b1);
      if (sp == nullptr) continue;
      for (const core::NodeId b2 : borders) {
        if (b2 == b1) continue;
        const auto d = sp->distance.find(b2);
        if (d == sp->distance.end()) continue;
        summary_graph_.add_edge(b1, b2, -1, d->second);
        transit_region_[{b1, b2}] =
            core::RegionId{static_cast<std::int32_t>(r)};
      }
    }
  }

  // Query-context slot per node known to any region graph (plus the
  // summary's own nodes, so gateway-origin queries resolve too). The
  // slot *set* is fixed here; readers only fill slot contents.
  for (const std::shared_ptr<const RankSnapshot>& snap : region_snaps_) {
    for (const core::NodeId n : snap->delay_graph().nodes()) {
      ctx_slots_.try_emplace(n);
    }
  }
  for (const core::NodeId n : summary_graph_.nodes()) {
    ctx_slots_.try_emplace(n);
  }
}

const NetworkMap& MetroView::link_map(core::NodeId from, core::NodeId to) const {
  const core::RegionId ra = regions_->region_of(from);
  const core::RegionId rb = regions_->region_of(to);
  if (ra == rb && valid_region(ra)) return region_map(ra);
  return *summary_map_;
}

const NetworkMap& MetroView::device_map(core::NodeId device) const {
  const core::RegionId r = regions_->region_of(device);
  if (valid_region(r)) return region_map(r);
  return *summary_map_;
}

std::int64_t MetroView::hier_link_max_queue(core::NodeId from, core::NodeId to,
                                            sim::SimTime now) const {
  const core::RegionId ra = regions_->region_of(from);
  const core::RegionId rb = regions_->region_of(to);
  if (ra == rb && valid_region(ra)) {
    return region_map(ra).link_max_queue(from, to, now);
  }
  // Cross-region link: the egress port was learned in the summary map,
  // but the port's queue series (per-device telemetry) lives in `from`'s
  // region map — consult both halves, then the flat fallback.
  const std::int32_t port = summary_map_->egress_port(from, to);
  const NetworkMap& dm = device_map(from);
  if (port >= 0) {
    if (const auto q = dm.fresh_port_max_queue(from, port, now)) return *q;
  }
  return dm.device_max_queue(from, now);
}

bool MetroView::hier_path_stale(const std::vector<core::NodeId>& path,
                                sim::SimTime now) const {
  if (summary_map_->config().link_staleness <= sim::SimDuration::zero()) {
    return false;
  }
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (link_map(path[i - 1], path[i]).link_stale(path[i - 1], path[i], now)) {
      return true;
    }
  }
  return false;
}

void MetroView::build_context(core::NodeId origin, QueryContext& ctx) const {
  ctx.region = regions_->region_of(origin);
  if (!valid_region(ctx.region)) return;
  ctx.sp0 = region_snaps_[ctx.region.index()]->paths_from(origin);
  if (ctx.sp0 == nullptr) return;

  // Summary-level Dijkstra from the origin: copy the augmented summary
  // graph and add synthetic origin->border edges costed by the
  // region-local distances. The copy is small — the summary graph holds
  // only border gateways, not the metro.
  net::Graph g = summary_graph_;
  for (const core::NodeId b :
       borders_by_region_[ctx.region.index()]) {
    // A border origin is already a summary node; an origin->origin edge
    // would only add a zero-cost self-loop.
    if (b == origin) continue;
    const auto d = ctx.sp0->distance.find(b);
    if (d == ctx.sp0->distance.end()) continue;
    g.add_edge(origin, b, -1, d->second);
  }
  ctx.summary_sp = net::dijkstra(g, origin);
  ctx.valid = true;

  // Freeze the admissible region lower bounds (pick_with's pruning key):
  // the cheapest border arrival per region is snapshot-constant for this
  // origin, so pay the per-border distance hashing once here and leave
  // the query loop a flat indexed read.
  ctx.region_bound.assign(borders_by_region_.size(),
                          sim::SimDuration::max());
  for (std::size_t r = 0; r < borders_by_region_.size(); ++r) {
    if (ctx.region.index() == r) {
      ctx.region_bound[r] = sim::SimDuration::zero();
      continue;
    }
    for (const core::NodeId b : borders_by_region_[r]) {
      const auto d = ctx.summary_sp.distance.find(b);
      if (d != ctx.summary_sp.distance.end()) {
        ctx.region_bound[r] = std::min(ctx.region_bound[r], d->second);
      }
    }
  }

  if (cfg_.compile_rank_plane) {
    // Compile the origin's rank plane (DESIGN.md §15): resolve the
    // two-level candidate path to every node the view knows — in
    // slot-key order, so the arena layout is deterministic — and freeze
    // each into a CSR row. Cold by contract: this runs once per origin
    // inside the query-context call_once.
    RankPlaneBuilder builder{cfg_.queue_statistic};
    RankScratch scratch;
    CandidatePath c;
    const HierMap hier{this};
    for (const auto& [node, unused] : ctx_slots_) {
      static_cast<void>(unused);
      candidate_path_into(ctx, origin, node, c, scratch);
      builder.add_path(hier, node, c.path, c.baseline_delay);
    }
    ctx.plane = builder.finish();
  }
}

const MetroView::QueryContext* MetroView::query_context(
    core::NodeId origin) const {
  const auto it = ctx_slots_.find(origin);
  if (it == ctx_slots_.end()) return nullptr;
  const CtxSlot& slot = it->second;
  // intsched-contract: allow(hot-lock): once-per-origin memo fill (§11)
  std::call_once(slot.once, [this, origin, &slot] {
    // intsched-contract: allow(hot-coldcall): sanctioned once-only fill
    build_context(origin, slot.ctx);
  });
  return &slot.ctx;
}

// intsched-lint: hot-path
void MetroView::expand_summary_path_into(const QueryContext& ctx,
                                         core::NodeId origin,
                                         core::NodeId border,
                                         std::vector<core::NodeId>& out,
                                         RankScratch& scratch) const {
  out.clear();
  scratch.spine.clear();
  if (!ctx.summary_sp.append_path_to(border, scratch.spine)) return;
  out.push_back(origin);
  for (std::size_t i = 1; i < scratch.spine.size(); ++i) {
    const core::NodeId u = scratch.spine[i - 1];
    const core::NodeId v = scratch.spine[i];
    if (u == origin) {
      // Synthetic first edge: splice the region-local path origin..v.
      // (If the origin is itself a border, a transit edge u->v has the
      // same cost as this splice, so either interpretation is sound; a
      // real cross-region edge u->v has no region path and falls
      // through to the hop case below.)
      scratch.seg.clear();
      if (ctx.sp0->append_path_to(v, scratch.seg)) {
        out.insert(out.end(), scratch.seg.begin() + 1, scratch.seg.end());
        continue;
      }
    }
    const auto t = transit_region_.find({u, v});
    if (t != transit_region_.end()) {
      // Transit edge: splice the owning region's path u..v.
      const net::ShortestPaths* sp =
          region_snaps_[t->second.index()]->paths_from(u);
      assert(sp != nullptr);  // transit edges are built from these memos
      scratch.seg.clear();
      if (sp->append_path_to(v, scratch.seg)) {
        out.insert(out.end(), scratch.seg.begin() + 1, scratch.seg.end());
      }
      continue;
    }
    out.push_back(v);  // real cross-region hop
  }
}

// intsched-lint: hot-path
void MetroView::candidate_path_into(const QueryContext& ctx,
                                    core::NodeId origin, core::NodeId server,
                                    CandidatePath& c,
                                    RankScratch& scratch) const {
  c.server = server;
  c.path.clear();
  c.baseline_delay = sim::SimDuration::max();
  const core::RegionId rs = regions_->region_of(server);
  if (rs == ctx.region) {
    ctx.sp0->append_path_to(server, c.path);
    const auto d = ctx.sp0->distance.find(server);
    if (d != ctx.sp0->distance.end()) c.baseline_delay = d->second;
    return;
  }
  if (!valid_region(rs)) return;  // unknown region: unreachable

  // Cheapest entry border of the server's region: summary distance to the
  // border plus region distance border -> server. Borders are sorted, so
  // "first minimum wins" is the deterministic smallest-id tie-break.
  const RankSnapshot& snap = *region_snaps_[rs.index()];
  core::NodeId best_border = core::kInvalidNode;
  sim::SimDuration best_total = sim::SimDuration::max();
  const net::ShortestPaths* best_tail = nullptr;
  for (const core::NodeId b : borders_by_region_[rs.index()]) {
    const auto ds = ctx.summary_sp.distance.find(b);
    if (ds == ctx.summary_sp.distance.end()) continue;
    const net::ShortestPaths* tail = snap.paths_from(b);
    if (tail == nullptr) continue;
    const auto dt = tail->distance.find(server);
    if (dt == tail->distance.end()) continue;
    const sim::SimDuration total = ds->second + dt->second;
    if (best_border == core::kInvalidNode || total < best_total) {
      best_border = b;
      best_total = total;
      best_tail = tail;
    }
  }
  if (best_border == core::kInvalidNode) return;

  c.baseline_delay = best_total;
  expand_summary_path_into(ctx, origin, best_border, c.path, scratch);
  scratch.seg.clear();
  best_tail->append_path_to(server, scratch.seg);
  if (c.path.empty() || scratch.seg.empty()) {
    c.path.clear();  // defensive: treat as unreachable
    return;
  }
  c.path.insert(c.path.end(), scratch.seg.begin() + 1, scratch.seg.end());
}

// intsched-lint: hot-path
void MetroView::rank_legacy_into(const QueryContext* ctx, core::NodeId origin,
                                 const core::NodeId* candidates,
                                 std::size_t count, RankingMetric metric,
                                 sim::SimTime now, RankScratch& scratch,
                                 std::vector<ServerRank>& out) const {
  // Grow-only: shrinking would destroy the pooled path vectors (and
  // their capacity) the zero-allocation contract depends on.
  if (scratch.paths.size() < count) scratch.paths.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    CandidatePath& c = scratch.paths[i];
    if (ctx != nullptr && ctx->valid) {
      candidate_path_into(*ctx, origin, candidates[i], c, scratch);
    } else {
      // Unknown origin: every candidate unreachable.
      c.server = candidates[i];
      c.path.clear();
      c.baseline_delay = sim::SimDuration::max();
    }
  }
  rank_paths_into(HierMap{this}, cfg_, scratch.paths.data(), count, metric,
                  now, out);
}

// intsched-lint: hot-path
void MetroView::rank_into(core::NodeId origin, const core::NodeId* candidates,
                          std::size_t count, RankingMetric metric,
                          sim::SimTime now, RankScratch& scratch,
                          std::vector<ServerRank>& out) const {
  rank_topk_into(origin, candidates, count, metric, now, count, scratch, out);
}

// intsched-lint: hot-path
void MetroView::rank_topk_into(core::NodeId origin,
                               const core::NodeId* candidates,
                               std::size_t count, RankingMetric metric,
                               sim::SimTime now, std::size_t top_k,
                               RankScratch& scratch,
                               std::vector<ServerRank>& out) const {
  const QueryContext* ctx = query_context(origin);
  if (ctx != nullptr && ctx->valid && ctx->plane.enabled) {
    // Compiled fast path: fused SoA kernel + deterministic top-k
    // selection over the origin's plane (DESIGN.md §15).
    rank_plane_into(HierMap{this}, cfg_, ctx->plane, candidates, count,
                    metric, now, top_k, scratch.plane, out);
    return;
  }
  rank_legacy_into(ctx, origin, candidates, count, metric, now, scratch, out);
  const std::size_t m = std::min(top_k, count);
  if (out.size() > m) out.resize(m);
}

std::vector<ServerRank> MetroView::rank(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now) const {
  RankScratch scratch;
  // intsched-contract: allow(hot-alloc): allocating overload contract
  std::vector<ServerRank> out;
  rank_into(origin, candidates.data(), candidates.size(), metric, now,
            scratch, out);
  return out;
}

// intsched-lint: hot-path
std::optional<ServerRank> MetroView::pick_with(
    core::NodeId origin, const core::NodeId* candidates, std::size_t count,
    RankingMetric metric, sim::SimTime now, RankScratch& scratch,
    PickStats* stats) const {
  if (count == 0) return std::nullopt;
  const QueryContext* ctx = query_context(origin);
  if (ctx == nullptr || !ctx->valid || metric != RankingMetric::kDelay) {
    // Bandwidth has no admissible region lower bound (a distant region
    // can still win); unknown origins rank everything unreachable. Both
    // fall back to the full ranking.
    rank_into(origin, candidates, count, metric, now, scratch,
              scratch.ranked);
    if (stats != nullptr) {
      stats->regions_considered = 1;
      stats->candidates_scored = static_cast<std::int64_t>(count);
    }
    return scratch.ranked.front();
  }

  // Group candidates by region, keeping candidate order within a group:
  // tag each candidate with (region, original index) and sort — the
  // index tie-break reproduces exactly the per-region insertion order
  // the previous std::map-of-vectors grouping produced, without its
  // per-query node allocations.
  scratch.grouped.clear();
  for (std::size_t i = 0; i < count; ++i) {
    RankScratch::Grouped g;
    g.region = regions_->region_of(candidates[i]);
    g.index = i;
    g.server = candidates[i];
    scratch.grouped.push_back(g);
  }
  std::sort(scratch.grouped.begin(), scratch.grouped.end(),
            [](const RankScratch::Grouped& a, const RankScratch::Grouped& b) {
              if (a.region != b.region) return a.region < b.region;
              return a.index < b.index;
            });

  // Admissible lower bound per region: every path into region r enters
  // through a border, so no server there can beat the cheapest border
  // arrival (queue terms only add). The origin's own region starts at 0.
  scratch.order.clear();
  for (std::size_t begin = 0; begin < scratch.grouped.size();) {
    std::size_t end = begin;
    while (end < scratch.grouped.size() &&
           scratch.grouped[end].region == scratch.grouped[begin].region) {
      ++end;
    }
    RankScratch::GroupBound gb;
    gb.region = scratch.grouped[begin].region;
    gb.begin = begin;
    gb.end = end;
    if (valid_region(gb.region)) {
      gb.bound = ctx->region_bound[gb.region.index()];
    }
    scratch.order.push_back(gb);
    begin = end;
  }
  std::sort(scratch.order.begin(), scratch.order.end(),
            [](const RankScratch::GroupBound& a,
               const RankScratch::GroupBound& b) {
              if (a.bound != b.bound) return a.bound < b.bound;
              return a.region < b.region;
            });

  const HierMap hier{this};
  // One gather epoch for the whole pick: groups share the plane scratch,
  // so a device queried while scoring one region is not re-queried when
  // a later region's paths cross it. The plane arm additionally carries
  // one running (delay ns, server id) incumbent across the whole group
  // sweep — later groups are scored against an already tight bound, so
  // the argmin's static-delay short-circuit skips most of their rows —
  // and materializes the full ServerRank exactly once at the end.
  const bool use_plane = ctx->plane.enabled;
  if (use_plane) scratch.plane.begin(ctx->plane);
  std::uint64_t best_key = ~std::uint64_t{0};
  std::uint32_t best_sid = 0xffffffffu;
  std::optional<ServerRank> best;
  PickStats local{};
  for (const RankScratch::GroupBound& gb : scratch.order) {
    // Strict >: a region whose bound *ties* the best estimate can still
    // hold the tie-breaking (smaller-id) winner, so only a strictly
    // worse bound may be pruned.
    if (use_plane) {
      if (best_sid != 0xffffffffu &&
          gb.bound > sim::SimDuration::nanos(
                         static_cast<std::int64_t>(best_key))) {
        ++local.regions_pruned;
        continue;
      }
    } else if (best.has_value() && gb.bound > best->delay_estimate) {
      ++local.regions_pruned;
      continue;
    }
    ++local.regions_considered;
    const std::size_t group_size = gb.end - gb.begin;
    local.candidates_scored += static_cast<std::int64_t>(group_size);
    if (use_plane) {
      // k=1 plane argmin: same (delay, server-id) winner as ranking the
      // group and taking front(), without the sort — continued from the
      // incumbent, so the comparison with `best` is built in.
      scratch.group_servers.clear();
      for (std::size_t i = 0; i < group_size; ++i) {
        scratch.group_servers.push_back(scratch.grouped[gb.begin + i].server);
      }
      pick_plane_argmin(cfg_, ctx->plane, scratch.group_servers.data(),
                        group_size, now, scratch.plane, best_key, best_sid);
    } else {
      if (scratch.paths.size() < group_size) scratch.paths.resize(group_size);
      for (std::size_t i = 0; i < group_size; ++i) {
        candidate_path_into(*ctx, origin, scratch.grouped[gb.begin + i].server,
                            scratch.paths[i], scratch);
      }
      rank_paths_into(hier, cfg_, scratch.paths.data(), group_size, metric,
                      now, scratch.ranked);
      if (scratch.ranked.empty()) continue;
      const ServerRank& top = scratch.ranked.front();
      if (!best.has_value() ||
          top.delay_estimate < best->delay_estimate ||
          (top.delay_estimate == best->delay_estimate &&
           top.server < best->server)) {
        best = top;
      }
    }
  }
  if (use_plane && best_sid != 0xffffffffu) {
    const core::NodeId winner{static_cast<std::int32_t>(best_sid)};
    ServerRank r;
    plane_detail::fill_rank(
        cfg_, ctx->plane, scratch.plane, ctx->plane.row_for(winner), winner,
        sim::SimDuration::nanos(static_cast<std::int64_t>(best_key)), now,
        hier.config().nominal_capacity.bps(),
        hier.config().link_staleness > sim::SimDuration::zero(), r);
    best = r;
  }
  if (stats != nullptr) *stats = local;
  return best;
}

std::optional<ServerRank> MetroView::pick(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now, PickStats* stats) const {
  RankScratch scratch;
  return pick_with(origin, candidates.data(), candidates.size(), metric, now,
                   scratch, stats);
}

// ---------------------------------------------------------------------------
// ShardedNetworkMap

ShardedNetworkMap::ShardedNetworkMap(RegionAssignment regions,
                                     ShardedMapConfig config)
    : regions_{std::make_shared<const RegionAssignment>(std::move(regions))},
      cfg_{std::move(config)},
      summary_map_{cfg_.map} {
  const auto n = static_cast<std::size_t>(
      std::max<std::int32_t>(0, regions_->count().value()));
  region_maps_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    region_maps_.emplace_back(cfg_.map);
  }
  borders_by_region_.resize(n);
  last_snaps_.resize(n);
  touched_.assign(n + 1, 0);
  LockGuard lock{mutex_};
  publish_locked();  // empty epoch-0 view so view() is never null
}

void ShardedNetworkMap::learn_pair_locked(core::NodeId from, core::NodeId to,
                                          std::int32_t out_port,
                                          sim::SimDuration delay_sample,
                                          sim::SimTime now) {
  const core::RegionId ra = regions_->region_of(from);
  const core::RegionId rb = regions_->region_of(to);
  const auto n = region_maps_.size();
  if (ra == rb && ra.valid() && ra.index() < n) {
    region_maps_[ra.index()].learn_link(from, to, out_port, delay_sample,
                                        now);
    touched_[ra.index()] = 1;
    return;
  }
  summary_map_.learn_link(from, to, out_port, delay_sample, now);
  touched_[n] = 1;
  const auto note_border = [this, n](core::RegionId r, core::NodeId node) {
    if (!r.valid() || r.index() >= n) return;
    std::vector<core::NodeId>& borders = borders_by_region_[r.index()];
    const auto it = std::lower_bound(borders.begin(), borders.end(), node);
    if (it == borders.end() || *it != node) borders.insert(it, node);
  };
  note_border(ra, from);
  note_border(rb, to);
}

void ShardedNetworkMap::apply_report_locked(
    const telemetry::ProbeReport& report, sim::SimTime now) {
  std::fill(touched_.begin(), touched_.end(), 0);

  // Same walk as NetworkMap::ingest, with each step routed to the owning
  // shard (see that function for the semantics of every step).
  core::NodeId upstream = report.src;
  std::int32_t upstream_port = 0;
  for (const auto& e : report.entries) {
    if (!e.device.valid()) {
      ++rejected_;
      continue;
    }
    learn_pair_locked(upstream, e.device, upstream_port,
                      e.ingress_link_latency, now);
    learn_pair_locked(e.device, upstream, e.ingress_port,
                      sim::SimDuration::nanos(-1), now);
    const core::RegionId rd = regions_->region_of(e.device);
    if (rd.valid() && rd.index() < region_maps_.size()) {
      region_maps_[rd.index()].record_entry_telemetry(e, now);
      touched_[rd.index()] = 1;
    } else {
      summary_map_.record_entry_telemetry(e, now);
      touched_[region_maps_.size()] = 1;
    }
    upstream = e.device;
    upstream_port = e.egress_port;
  }
  if (upstream != report.src) {
    learn_pair_locked(upstream, report.dst, upstream_port,
                      report.final_link_latency, now);
    learn_pair_locked(report.dst, upstream, 0, sim::SimDuration::nanos(-1),
                      now);
  }

  for (std::size_t r = 0; r < region_maps_.size(); ++r) {
    if (touched_[r] != 0) region_maps_[r].finish_ingest(now);
  }
  if (touched_[region_maps_.size()] != 0) summary_map_.finish_ingest(now);
  ++reports_;
}

std::shared_ptr<const RankSnapshot> ShardedNetworkMap::build_region_snapshot(
    std::size_t r) const {
  return std::make_shared<const RankSnapshot>(region_maps_[r]);
}

void ShardedNetworkMap::publish_locked() {
  // A region is dirty iff its shard ingested anything since its last
  // snapshot (RankSnapshot's epoch is the shard's reports_ingested at
  // build time). Clean regions keep their snapshot — Dijkstra memos and
  // all — across the publish.
  std::vector<std::size_t> dirty;
  for (std::size_t r = 0; r < region_maps_.size(); ++r) {
    if (last_snaps_[r] == nullptr ||
        last_snaps_[r]->epoch() != region_maps_[r].ingest_epoch()) {
      dirty.push_back(r);
    }
  }
  if (!dirty.empty()) {
    if (cfg_.rebuild_executor != nullptr && dirty.size() > 1) {
      // Workers write index-addressed slots, so the published vector is
      // byte-identical no matter how the executor schedules them.
      std::vector<std::shared_ptr<const RankSnapshot>> built(dirty.size());
      cfg_.rebuild_executor(dirty.size(), [this, &dirty, &built](
                                              std::size_t i) {
        built[i] = build_region_snapshot(dirty[i]);
      });
      for (std::size_t i = 0; i < dirty.size(); ++i) {
        last_snaps_[dirty[i]] = std::move(built[i]);
      }
    } else {
      for (const std::size_t r : dirty) {
        last_snaps_[r] = build_region_snapshot(r);
      }
    }
    snapshot_builds_ += static_cast<std::int64_t>(dirty.size());
  }
  if (last_summary_ == nullptr ||
      last_summary_epoch_ != summary_map_.ingest_epoch()) {
    last_summary_ = std::make_shared<const NetworkMap>(summary_map_);
    last_summary_epoch_ = summary_map_.ingest_epoch();
  }

  view_.store(std::make_shared<const MetroView>(
                  regions_, last_snaps_, last_summary_, borders_by_region_,
                  cfg_.ranker, Epoch{reports_}),
              std::memory_order_release);
  ++publishes_;
}

void ShardedNetworkMap::apply(const telemetry::ProbeReport& report,
                              sim::SimTime now) {
  LockGuard lock{mutex_};
  apply_report_locked(report, now);
}

void ShardedNetworkMap::publish() {
  LockGuard lock{mutex_};
  publish_locked();
}

void ShardedNetworkMap::ingest(const telemetry::ProbeReport& report,
                               sim::SimTime now) {
  LockGuard lock{mutex_};
  apply_report_locked(report, now);
  publish_locked();
}

void ShardedNetworkMap::ingest_batch(
    const std::vector<telemetry::ProbeReport>& reports, sim::SimTime now) {
  LockGuard lock{mutex_};
  for (const telemetry::ProbeReport& report : reports) {
    apply_report_locked(report, now);
  }
  publish_locked();
}

std::vector<ServerRank> ShardedNetworkMap::rank(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<const MetroView> v =
      view_.load(std::memory_order_acquire);
  return v->rank(origin, candidates, metric, now);
}

std::optional<ServerRank> ShardedNetworkMap::pick(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now, PickStats* stats) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<const MetroView> v =
      view_.load(std::memory_order_acquire);
  return v->pick(origin, candidates, metric, now, stats);
}

void ShardedNetworkMap::set_k_factor(sim::SimDuration k) {
  LockGuard lock{mutex_};
  // Region snapshots hold no ranker config (their Dijkstra memos are
  // k-independent); the new view carries the new k.
  cfg_.ranker.k_factor = k;
  publish_locked();
}

std::int64_t ShardedNetworkMap::reports_ingested() const {
  LockGuard lock{mutex_};
  return reports_;
}

std::int64_t ShardedNetworkMap::rejected_entries() const {
  LockGuard lock{mutex_};
  return rejected_;
}

std::int64_t ShardedNetworkMap::region_snapshot_builds() const {
  LockGuard lock{mutex_};
  return snapshot_builds_;
}

std::int64_t ShardedNetworkMap::view_publishes() const {
  LockGuard lock{mutex_};
  return publishes_;
}

}  // namespace intsched::core
