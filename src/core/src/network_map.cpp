#include "intsched/core/network_map.hpp"

#include <algorithm>
#include <limits>

#include "intsched/sim/audit.hpp"

namespace intsched::core {

sim::SimTime NetworkMap::window_cutoff(sim::SimTime now,
                                       sim::SimDuration window) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t n = now.ns();
  const std::int64_t w = window.ns();
  // n - w would underflow when w > n - kMin; saturate to "everything is
  // fresh" instead. Windows are non-negative, so overflow upward is
  // impossible.
  if (w > 0 && n < kMin + w) return sim::SimTime::nanoseconds(kMin);
  return sim::SimTime::nanoseconds(n - w);
}

void NetworkMap::learn_link(core::NodeId from, core::NodeId to,
                            std::int32_t out_port,
                            sim::SimDuration delay_sample, sim::SimTime now) {
  const LinkKey key{from, to};
  const auto known = link_delay_.find(key);
  const bool have_sample = delay_sample >= sim::SimDuration::zero();

  if (known == link_delay_.end()) {
    link_delay_.emplace(
        key, DelayEstimate{
                 have_sample ? delay_sample : cfg_.default_link_delay,
                 sim::SimDuration::zero(), now, have_sample});
    if (out_port >= 0) link_port_[key] = out_port;
    // New edge: extend the inferred graph. Edge cost is refreshed at
    // query time via delay_graph(); the stored cost is the first estimate.
    graph_.add_edge(from, to, out_port,
                    have_sample ? delay_sample : cfg_.default_link_delay);
    return;
  }

  if (out_port >= 0) link_port_[key] = out_port;
  if (have_sample) {
    DelayEstimate& est = known->second;
    est.measured_at = std::max(est.measured_at, now);
    if (!est.measured) {
      est.value = delay_sample;
      est.jitter = sim::SimDuration::zero();
      est.measured = true;
      return;
    }
    const double alpha = cfg_.link_delay_alpha;
    const auto deviation = delay_sample > est.value
                               ? delay_sample - est.value
                               : est.value - delay_sample;
    est.jitter = sim::SimDuration::nanos(static_cast<std::int64_t>(
        alpha * static_cast<double>(deviation.ns()) +
        (1.0 - alpha) * static_cast<double>(est.jitter.ns())));
    const double blended =
        alpha * static_cast<double>(delay_sample.ns()) +
        (1.0 - alpha) * static_cast<double>(est.value.ns());
    est.value = sim::SimDuration::nanos(static_cast<std::int64_t>(blended));
  }
}

void NetworkMap::record_queue(QueueSeries& series, sim::SimTime now,
                              std::int64_t value) {
  // The series is a monotonic max-deque: times ascend, values strictly
  // descend, and every entry is the window max from its own timestamp
  // until the next entry's. max_in_window is then a front read instead of
  // a full scan; the invariant is maintained here, at ingest.
  auto& d = series.samples;
  const sim::SimTime cutoff = window_cutoff(now, cfg_.queue_window);
  while (!d.empty() && d.front().first < cutoff) d.pop_front();

  // Ingest accepts late stragglers, so find the time-ordered insertion
  // point from the back (O(1) for in-order arrivals).
  std::size_t insert_at = d.size();
  while (insert_at > 0 && d[insert_at - 1].first > now) --insert_at;
  // Entries at/after the insertion point are newer, and the first of them
  // carries their largest value; if it already dominates the new sample
  // (newer and at least as large), the sample can never be a window max.
  if (insert_at < d.size() && d[insert_at].second >= value) return;
  // Conversely, older entries no larger than the new sample expire first
  // while never exceeding it — drop them.
  std::size_t keep = insert_at;
  while (keep > 0 && d[keep - 1].second <= value) --keep;
  d.erase(d.begin() + static_cast<std::ptrdiff_t>(keep),
          d.begin() + static_cast<std::ptrdiff_t>(insert_at));
  d.insert(d.begin() + static_cast<std::ptrdiff_t>(keep), {now, value});
}

std::int64_t NetworkMap::max_in_window(const QueueSeries& series,
                                       sim::SimTime cutoff) {
  // Values descend front-to-back, so the first fresh entry is the max.
  // Expired fronts are skipped (not popped — this path must stay const
  // for arbitrary query times) and reclaimed at the next ingest.
  for (const auto& [t, v] : series.samples) {
    if (t >= cutoff) return v;
  }
  return 0;
}

void NetworkMap::record_entry_telemetry(const net::IntStackEntry& e,
                                        sim::SimTime now) {
  // Congestion state. Register values are occupancy counts; negative
  // values can only come from corruption, clamp so the max logic and
  // bandwidth estimator never see them.
  record_queue(port_queue_[PortKey{e.device, e.egress_port}], now,
               std::max<std::int64_t>(0, e.max_queue_pkts));
  record_queue(device_queue_[e.device], now,
               std::max<std::int64_t>(0, e.device_max_queue_pkts));
  record_queue(device_avg_queue_[e.device], now,
               std::max<std::int64_t>(0, e.device_avg_queue_x100));
  record_queue(device_hop_latency_[e.device], now,
               std::max<std::int64_t>(0, e.max_hop_latency.ns()));
}

void NetworkMap::finish_ingest(sim::SimTime now) {
  ++reports_;
#if INTSCHED_AUDIT_ENABLED
  audit_ingest_hw_ = std::max(audit_ingest_hw_, now);
  // Amortized schedule (see audit_invariants' docs): every report while
  // the map is Fig.-4 sized, every kAuditSparsePeriod-th beyond that, so
  // the audit preset stays usable on TopologyGen-scale maps.
  if (static_cast<std::int64_t>(link_delay_.size()) <=
          kAuditFullWalkMaxLinks ||
      reports_ % kAuditSparsePeriod == 0) {
    audit_invariants(audit_ingest_hw_);
  }
#else
  (void)now;
#endif
}

void NetworkMap::ingest(const telemetry::ProbeReport& report,
                        sim::SimTime now) {
  const auto& entries = report.entries;

  // Track the previous *accepted* entry so a rejected one in the middle of
  // the stack does not fabricate an edge across the gap from a bogus id.
  core::NodeId upstream = report.src;
  std::int32_t upstream_port = 0;

  for (const auto& e : entries) {
    // Sanity: a damaged stack entry (truncated / corrupted probe) must not
    // poison the topology with an invalid node. Skip it but keep the rest.
    if (!e.device.valid()) {
      note_rejected_entry();
      continue;
    }

    // Adjacency + link delay. Entry i's ingress link comes from the
    // previous device in the stack (or the probing host for i == 0).
    learn_link(upstream, e.device, upstream_port, e.ingress_link_latency,
               now);
    // The reverse direction's egress port is this entry's ingress port;
    // delay is assumed symmetric but we do not overwrite a measured value
    // with the sample (pass no sample).
    learn_link(e.device, upstream, e.ingress_port,
               sim::SimDuration::nanos(-1), now);

    record_entry_telemetry(e, now);

    upstream = e.device;
    upstream_port = e.egress_port;
  }

  // Final hop: last accepted switch -> collector host.
  if (upstream != report.src) {
    learn_link(upstream, report.dst, upstream_port,
               report.final_link_latency, now);
    learn_link(report.dst, upstream, 0, sim::SimDuration::nanos(-1), now);
  }

  finish_ingest(now);
}

#if INTSCHED_AUDIT_ENABLED
void NetworkMap::audit_invariants(sim::SimTime high_water) const {
  // Order-insensitive walk: every check is per-entry, so hash order is
  // immaterial here. intsched-lint: allow(unordered-iter)
  for (const auto& [key, est] : link_delay_) {
    INTSCHED_AUDIT_ASSERT(
        key.from != core::kInvalidNode && key.to != core::kInvalidNode,
        "NetworkMap learned a link with an invalid endpoint");
    INTSCHED_AUDIT_ASSERT(key.from != key.to,
                          "NetworkMap learned a self-loop link");
    INTSCHED_AUDIT_ASSERT(
        graph_.has_node(key.from) && graph_.has_node(key.to),
        "link_delay_ references a node missing from the inferred graph");
    INTSCHED_AUDIT_ASSERT(
        !est.measured || est.measured_at <= high_water,
        "link freshness stamp postdates every ingest seen");
    INTSCHED_AUDIT_ASSERT(est.jitter >= sim::SimDuration::zero(),
                          "negative jitter estimate");
  }
  // intsched-lint: allow(unordered-iter)
  for (const auto& [key, port] : link_port_) {
    INTSCHED_AUDIT_ASSERT(port >= 0, "learned egress port is negative");
    INTSCHED_AUDIT_ASSERT(
        link_delay_.contains(key),
        "link_port_ entry without a matching delay estimate");
  }
  // Each series is a monotonic max-deque (see record_queue): times must
  // ascend, values strictly descend, no sample postdates the newest
  // ingest, and values are sane.
  const auto audit_series = [high_water](const QueueSeries& series) {
    for (std::size_t i = 0; i < series.samples.size(); ++i) {
      const auto& [t, v] = series.samples[i];
      INTSCHED_AUDIT_ASSERT(
          t <= high_water,
          "telemetry sample postdates every ingest seen");
      INTSCHED_AUDIT_ASSERT(v >= 0, "negative queue-occupancy sample");
      if (i > 0) {
        INTSCHED_AUDIT_ASSERT(series.samples[i - 1].first <= t,
                              "max-deque times must be non-decreasing");
        INTSCHED_AUDIT_ASSERT(series.samples[i - 1].second > v,
                              "max-deque values must strictly decrease");
      }
    }
  };
  // intsched-lint: allow(unordered-iter)
  for (const auto& [key, series] : port_queue_) audit_series(series);
  // intsched-lint: allow(unordered-iter)
  for (const auto& [key, series] : device_queue_) audit_series(series);
  // intsched-lint: allow(unordered-iter)
  for (const auto& [key, series] : device_avg_queue_) audit_series(series);
  // intsched-lint: allow(unordered-iter)
  for (const auto& [key, series] : device_hop_latency_) audit_series(series);
}
#endif

bool NetworkMap::link_stale(core::NodeId from, core::NodeId to,
                            sim::SimTime now) const {
  if (cfg_.link_staleness <= sim::SimDuration::zero()) return false;
  const sim::SimTime cutoff = window_cutoff(now, cfg_.link_staleness);
  const auto it = link_delay_.find(LinkKey{from, to});
  if (it != link_delay_.end() && it->second.measured) {
    return it->second.measured_at < cutoff;
  }
  const auto rev = link_delay_.find(LinkKey{to, from});
  if (rev != link_delay_.end() && rev->second.measured) {
    return rev->second.measured_at < cutoff;
  }
  return true;  // never measured in either direction
}

bool NetworkMap::path_stale(const std::vector<core::NodeId>& path,
                            sim::SimTime now) const {
  if (cfg_.link_staleness <= sim::SimDuration::zero()) return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (link_stale(path[i - 1], path[i], now)) return true;
  }
  return false;
}

sim::SimDuration NetworkMap::link_jitter(core::NodeId from,
                                     core::NodeId to) const {
  const auto it = link_delay_.find(LinkKey{from, to});
  if (it != link_delay_.end() && it->second.measured) {
    return it->second.jitter;
  }
  const auto rev = link_delay_.find(LinkKey{to, from});
  if (rev != link_delay_.end() && rev->second.measured) {
    return rev->second.jitter;
  }
  return sim::SimDuration::zero();
}

net::Graph NetworkMap::delay_graph() const {
  // The snapshot feeds Dijkstra and, through it, candidate rankings.
  // Materialize the hash-map keys and sort so the emitted adjacency lists
  // are identical across rehashes and insertion histories — hash order
  // must never reach ranking or report output.
  std::vector<LinkKey> keys;
  keys.reserve(link_delay_.size());
  // intsched-lint: allow(unordered-iter)
  for (const auto& [key, _] : link_delay_) keys.push_back(key);
  std::sort(keys.begin(), keys.end(), [](const LinkKey& a, const LinkKey& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  net::Graph g;
  for (const LinkKey& key : keys) {
    const auto port = link_port_.find(key);
    g.add_edge(key.from, key.to,
               port == link_port_.end() ? -1 : port->second,
               link_delay(key.from, key.to));
  }
  return g;
}

sim::SimDuration NetworkMap::link_delay(core::NodeId from, core::NodeId to) const {
  const auto it = link_delay_.find(LinkKey{from, to});
  if (it != link_delay_.end() && it->second.measured) return it->second.value;
  // Never measured in this direction: assume symmetry with the reverse.
  const auto rev = link_delay_.find(LinkKey{to, from});
  if (rev != link_delay_.end() && rev->second.measured) {
    return rev->second.value;
  }
  if (it != link_delay_.end()) return it->second.value;
  if (rev != link_delay_.end()) return rev->second.value;
  return cfg_.default_link_delay;
}

std::int32_t NetworkMap::egress_port(core::NodeId from, core::NodeId to) const {
  const auto it = link_port_.find(LinkKey{from, to});
  return it == link_port_.end() ? -1 : it->second;
}

std::int64_t NetworkMap::device_max_queue(core::NodeId device,
                                          sim::SimTime now) const {
  const auto it = device_queue_.find(device);
  if (it == device_queue_.end()) return 0;
  return max_in_window(it->second, window_cutoff(now, cfg_.queue_window));
}

double NetworkMap::device_avg_queue(core::NodeId device,
                                    sim::SimTime now) const {
  const auto it = device_avg_queue_.find(device);
  if (it == device_avg_queue_.end()) return 0.0;
  return static_cast<double>(
             max_in_window(it->second, window_cutoff(now, cfg_.queue_window))) /
         100.0;
}

sim::SimDuration NetworkMap::device_hop_latency(core::NodeId device,
                                                sim::SimTime now) const {
  const auto it = device_hop_latency_.find(device);
  if (it == device_hop_latency_.end()) return sim::SimDuration::zero();
  return sim::SimDuration::nanos(
      max_in_window(it->second, window_cutoff(now, cfg_.queue_window)));
}

std::int64_t NetworkMap::link_max_queue(core::NodeId from, core::NodeId to,
                                        sim::SimTime now) const {
  const QueueSeries* port = plane_link_port_series(from, to);
  if (port_series_fresh(port, now)) return window_max_of(port, now);
  // Port never probed (or stale): fall back to the device-wide register,
  // a conservative over-approximation.
  return device_max_queue(from, now);
}

}  // namespace intsched::core
