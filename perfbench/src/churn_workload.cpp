// churn_metro: the full metro under telemetry churn, single-threaded and
// deterministically interleaved. Each round ingests one refresh batch
// (links / 8 links, both orientations) through ingest_batch, then answers
// a fixed number of whole-registry decisions from seeded origins — fewer
// than the origin count, so every round mixes first-per-epoch memo fills
// with warm repeats. A run churns three deployments in turn, each for a
// third of the time.

#include <algorithm>
#include <iostream>
#include <unordered_set>

#include "metro_setup.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = intsched::sim;

namespace {

constexpr std::int64_t kRoundStepMs = 50;
/// Stream length in rounds before the origin sequence repeats.
constexpr std::size_t kStreamRounds = 512;

sim::SimTime round_time(std::size_t round) {
  return sweep_time() +
         sim::SimDuration::milliseconds(
             kRoundStepMs * static_cast<std::int64_t>(round + 1));
}

struct RoundLog {
  std::vector<intsched::telemetry::ProbeReport> batch;
  std::vector<Served> kept;
};

/// Everything pooled over a run's deployments.
struct Pooled {
  Rounds rounds;    ///< rounds measured as --trace 0 does
  Rounds traced;    ///< trace run: rounds with serve() timed apart
  std::vector<double> setup_s, publish_ms, builds, reports_per_s;
  std::vector<std::int64_t> enc, srv, dec, fill_ns, hit_ns;
  Tally tally;
  std::int64_t epoch_failures = 0;
  std::int64_t rejected = 0;
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;
  std::int64_t malformed = 0, unknown_origin = 0, no_candidates = 0;
};

void churn_one(MetroSize size, std::uint64_t seed, double seconds,
               bool trace, Pooled& out, Report& report) {
  SetupCost cost;
  Tally warm_tally;
  std::unique_ptr<Metro> m = build_metro(
      size, seed,
      [&](const Metro& x) {
        return twice_per_origin(registry_stream(x.hosts, 1, 1, seed, 1),
                                x.hosts);
      },
      cost, warm_tally);
  tally_into(report, warm_tally, "memo-warm requests");
  out.setup_s.push_back(cost.total_s);

  const std::size_t per_round = std::max<std::size_t>(4, m->hosts.size() / 4);
  const auto batch_links = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(m->topo.links.size()) / 8);
  const Stream stream = registry_stream(m->hosts, per_round * kStreamRounds, 1,
                                        seed, /*label=*/3);
  Client client{*m->frontend, stream, 0};
  const std::int64_t timer_ns = timer_overhead_ns();

  std::vector<RoundLog> log;
  std::vector<std::int64_t> lat, enc, srv, dec;
  for (auto* v : {&lat, &enc, &srv, &dec}) v->reserve(per_round);
  std::unordered_set<std::int32_t> seen;

  // The trace run times serve() apart in its second half only; the first
  // half is the untraced loop it is compared with.
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t spent = 0;
  for (std::size_t r = 0; spent < budget; ++r) {
    RoundLog entry;
    entry.batch = m->telemetry->refresh(batch_links);
    const sim::SimTime now = round_time(r);
    const std::size_t first_shape = (r % kStreamRounds) * per_round;

    const std::int64_t before = m->map->view()->epoch().value();
    const std::int64_t builds_before = m->map->region_snapshot_builds();
    const std::int64_t p0 = wall_ns();
    m->map->ingest_batch(entry.batch, now);
    const std::int64_t p1 = wall_ns();
    const std::int64_t epoch = m->map->view()->epoch().value();
    report.op(true, "publish");
    if (epoch <= before) ++out.epoch_failures;
    out.publish_ms.push_back(static_cast<double>(p1 - p0) / 1e6);
    out.builds.push_back(
        static_cast<double>(m->map->region_snapshot_builds() - builds_before));
    out.reports_per_s.push_back(static_cast<double>(entry.batch.size()) *
                                1e9 / static_cast<double>(p1 - p0));

    const bool traced = trace && spent >= budget / 2;
    lat.clear();
    if (traced) {
      enc.clear();
      srv.clear();
      dec.clear();
      client.run_split(per_round, now, timer_ns, enc, srv, dec, out.tally);
    } else {
      client.run(per_round, now, epoch, lat, out.tally, per_round / 4,
                 &entry.kept);
    }
    const std::int64_t d1 = wall_ns();
    spent += d1 - p0;

    if (traced) {
      // The first request per origin in this epoch fills its memo.
      seen.clear();
      for (std::size_t i = 0; i < per_round; ++i) {
        const NodeId o = stream.shapes[first_shape + i].origin;
        (seen.insert(o.value()).second ? out.fill_ns : out.hit_ns)
            .push_back(srv[i]);
      }
      out.enc.insert(out.enc.end(), enc.begin(), enc.end());
      out.srv.insert(out.srv.end(), srv.begin(), srv.end());
      out.dec.insert(out.dec.end(), dec.begin(), dec.end());
      out.traced.close(srv, d1 - p0);
    } else {
      out.rounds.close(lat, d1 - p0);
    }
    log.push_back(std::move(entry));
  }
  out.rejected += m->map->rejected_entries();
  const auto& ctx = client.context();
  out.malformed += ctx.malformed;
  out.unknown_origin += ctx.unknown_origin;
  out.no_candidates += ctx.no_candidates;

  // Reference replay: a plain NetworkMap fed the sweep and then every
  // batch in order, checked against the answers kept in each round at
  // that round's sim time.
  auto plain = plain_map();
  for (const auto& rep : m->sweep) plain->ingest(rep, sweep_time());
  const ReferenceAlgorithm1 ref = metro_reference(*m);
  for (std::size_t r = 0; r < log.size(); ++r) {
    const sim::SimTime now = round_time(r);
    for (const auto& rep : log[r].batch) plain->ingest(rep, now);
    const Estimator est = estimator_of(*plain, now);
    for (const Served& sv : log[r].kept) {
      ++out.checked;
      if (!matches_reference(ref.rank(est, sv.origin, m->servers),
                             sv.entries)) {
        ++out.mismatches;
      }
    }
  }
}

}  // namespace

void run_churn_metro(const Options& opts, Report& report) {
  const MetroSize size = opts.smoke ? MetroSize::kSmall : MetroSize::kFull;
  const int deployments = opts.smoke ? 1 : 3;
  double seconds = opts.seconds;
  if (opts.trace) {
    // The warm metro's serving stages (pick_with, region pruning, decode,
    // acquire, encode) are traced here first, on a freshly warmed
    // deployment; the churn loop below then sets the metrics it shares
    // with them (serve(), client, memo, ingest, overhead).
    trace_warm_metro(opts, seconds * 0.2, report);
    seconds *= 0.8;
  }
  Pooled p;
  for (int k = 0; k < deployments; ++k) {
    churn_one(size, deployment_seed(opts.seed, static_cast<std::uint64_t>(k)),
              seconds / deployments, opts.trace, p, report);
  }
  tally_into(report, p.tally, "churn decisions");
  report.check(p.epoch_failures == 0, "every publish advanced the view epoch");
  report.check(p.rejected == 0, "refresh ingest rejected no INT entries");
  if (p.mismatches != 0) {
    std::cerr << "perfbench: " << p.mismatches << " of " << p.checked
              << " post-publish answers differ from the reference\n";
  }
  report.check(p.mismatches == 0,
               "post-publish answers equal reference Algorithm 1");
  report.check(p.checked > 0, "post-publish answers were sampled");

  if (!opts.trace) {
    report.set("setup_s", median_of(p.setup_s));
    report.set("ops_per_s", median_of(p.rounds.rate_per_s));
    report.set("op_p50_us", median_of(p.rounds.p50_us));
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  report.check(!p.srv.empty() && !p.rounds.rate_per_s.empty(),
               "traced run covered untraced and traced rounds");
  report.set("serve.serve_ns", median_of(p.srv));
  report.set("serve.decision_p99_us", median_of(p.rounds.p99_us));
  report.set("serve.decisions_per_s_1thread", median_of(p.rounds.rate_per_s));
  report.set("core.memo_fill_ms",
             (median_of(p.fill_ns) - median_of(p.hit_ns)) / 1e6);
  report.set("core.memo_hit_ratio",
             static_cast<double>(p.hit_ns.size()) /
                 static_cast<double>(p.hit_ns.size() + p.fill_ns.size()));
  report.set("core.ingest_batch_ms", median_of(p.publish_ms));
  report.set("core.region_builds_per_publish", median_of(p.builds));
  report.set("core.ingest_reports_per_s", median_of(p.reports_per_s));
  report.set("core.rejected_entries", static_cast<double>(p.rejected));
  report.set("client.encode_request_ns", median_of(p.enc));
  report.set("client.decode_response_ns", median_of(p.dec));
  report.set("trace.overhead_ratio",
             median_of(p.rounds.rate_per_s) / median_of(p.traced.rate_per_s));
  report.set("serve.malformed", static_cast<double>(p.malformed));
  report.set("serve.unknown_origin", static_cast<double>(p.unknown_origin));
  report.set("serve.no_candidates", static_cast<double>(p.no_candidates));
}

}  // namespace perfbench
