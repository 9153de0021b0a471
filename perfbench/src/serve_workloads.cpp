// serve_warm_metro and serve_small_mt: closed-loop wire serving over a
// fully warmed metro.

#include <algorithm>
#include <array>
#include <iostream>
#include <memory>

#include "metro_setup.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = intsched::core;
namespace serve = intsched::serve;

namespace {

struct ServeSpec {
  MetroSize size = MetroSize::kFull;
  int builds = 1;               ///< set-ups per deployment (the last is kept)
  std::size_t round = 8192;     ///< requests per producer per round
  std::size_t keep_every = 16;  ///< answers kept for the reference check
  bool explicit_candidates = false;
};

/// A warmed metro with the workload's request stream.
struct ServedMetro {
  std::unique_ptr<Metro> metro;
  std::vector<SetupCost> costs;
  Stream stream;
  std::int64_t epoch = -1;
};

Stream workload_stream(const ServeSpec& spec, const Metro& m,
                       std::uint64_t seed) {
  constexpr std::size_t kStreamLength = 1 << 16;
  if (spec.explicit_candidates) {
    // 6 registered servers + 2 unregistered hosts, top 4.
    return explicit_stream(m.hosts, m.servers, kStreamLength, 6, 2, 4, seed,
                           /*label=*/2);
  }
  return registry_stream(m.hosts, kStreamLength, 1, seed, /*label=*/1);
}

ServedMetro bring_up(const ServeSpec& spec, std::uint64_t seed,
                     Report& report) {
  ServedMetro s;
  Tally warm_tally;
  s.metro = build_metro_repeated(
      spec.size, seed, spec.builds,
      [&](const Metro& m) {
        return twice_per_origin(workload_stream(spec, m, seed), m.hosts);
      },
      s.costs, warm_tally);
  tally_into(report, warm_tally, "memo-warm requests");
  s.stream = workload_stream(spec, *s.metro, seed);
  s.epoch = s.metro->map->view()->epoch().value();
  return s;
}

/// Checks kept answers against the reference Algorithm 1 over a plain
/// NetworkMap fed the same sweep.
void check_kept(const ServedMetro& s, const std::vector<Served>& kept,
                Report& report) {
  const Metro& m = *s.metro;
  auto plain = plain_map();
  for (const auto& r : m.sweep) plain->ingest(r, sweep_time());
  const ReferenceAlgorithm1 ref = metro_reference(m);
  const Estimator est = estimator_of(*plain, sweep_time());
  std::int64_t mismatches = 0;
  for (const Served& sv : kept) {
    const Shape& shape = s.stream.shapes[sv.shape];
    std::vector<NodeId> cands;
    if (shape.cand_count == 0) {
      cands = m.servers;
    } else {
      for (std::size_t i = 0; i < shape.cand_count; ++i) {
        const NodeId c = s.stream.candidates[shape.cand_begin + i];
        if (m.frontend->is_registered(c)) cands.push_back(c);
      }
    }
    if (!matches_reference(ref.rank(est, sv.origin, cands), sv.entries)) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "perfbench: " << mismatches << " of " << kept.size()
              << " sampled answers differ from the reference\n";
  }
  report.check(mismatches == 0, "served answers equal reference Algorithm 1");
  report.check(!kept.empty(), "answers were sampled for the reference");
}

std::vector<std::unique_ptr<Client>> make_clients(const ServedMetro& s,
                                                  int producers) {
  const auto n = static_cast<std::size_t>(producers);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t p = 0; p < n; ++p) {
    clients.push_back(std::make_unique<Client>(
        *s.metro->frontend, s.stream, p * (s.stream.shapes.size() / n)));
  }
  return clients;
}

/// Closed loop on `producers` threads over the stream. Each producer runs
/// one untimed round first so its context's buffers reach their working
/// size before timing starts.
Rounds closed_loop(const ServedMetro& s, const ServeSpec& spec, int producers,
                   double seconds, Report& report,
                   std::vector<Served>* kept = nullptr) {
  const auto n = static_cast<std::size_t>(producers);
  auto clients = make_clients(s, producers);
  std::vector<std::vector<std::int64_t>> lat(n);
  std::vector<Tally> tallies(n);
  for (std::size_t p = 0; p < n; ++p) {
    lat[p].reserve(spec.round);
    clients[p]->run(spec.round, sweep_time(), s.epoch, lat[p], tallies[p]);
  }
  Rounds rounds;
  std::vector<std::int64_t> merged;
  merged.reserve(spec.round * n);
  bool first = true;
  lockstep_rounds(
      producers, seconds,
      [&](int p) {
        const auto i = static_cast<std::size_t>(p);
        lat[i].clear();
        const bool keep = first && i == 0 && kept != nullptr;
        clients[i]->run(spec.round, sweep_time(), s.epoch, lat[i], tallies[i],
                        keep ? spec.keep_every : 0, keep ? kept : nullptr);
      },
      [&](std::int64_t round_ns) {
        merged.clear();
        for (const auto& l : lat) merged.insert(merged.end(), l.begin(), l.end());
        rounds.close(merged, round_ns);
        first = false;
      });
  for (const Tally& t : tallies) tally_into(report, t, "wire decisions");
  return rounds;
}

struct StageSamples {
  std::vector<std::int64_t> decode, probe, acquire, kernel, encode, serve;
  core::PickStats stats_sum{};
  std::int64_t picks = 0;

  void clear() {
    for (auto* v : {&decode, &probe, &acquire, &kernel, &encode, &serve}) {
      v->clear();
    }
  }
};

/// Replays the stream stage by stage through the public calls serve() is
/// made of — decode, registry probes, view acquire (+ release), the rank
/// kernel (pick_with for single-best delay requests, rank_topk_into
/// otherwise, the dispatch serve() makes), encode — each timed alone, and
/// times one whole serve() of the same request next to it (alternating
/// which goes first), so stage sums and serve() are compared over the same
/// requests at the same moment.
void run_stages(const ServedMetro& s, Client& client, std::size_t n,
                std::int64_t timer_ns, StageSamples& out, Tally& tally) {
  const Metro& m = *s.metro;
  serve::ServeContext& ctx = client.context();
  std::array<std::byte, serve::kMaxFrameSize> resp_buf{};
  std::array<std::byte, serve::kMaxFrameSize> paired_buf{};
  RankResponse decoded;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = client.encode_next();
    const auto paired = [&] {
      std::size_t paired_len = 0;
      const std::int64_t a = wall_ns();
      const bool ok = m.frontend->serve(ctx, client.request_bytes(), len,
                                        paired_buf.data(), paired_buf.size(),
                                        paired_len, sweep_time());
      const std::int64_t b = wall_ns();
      out.serve.push_back(b - a - timer_ns);
      if (!ok) ++tally.failed;
    };
    if (i % 2 == 1) paired();

    const std::int64_t t0 = wall_ns();
    const bool ok = serve::decode_rank_request(client.request_bytes(), len,
                                               ctx.request) ==
                    serve::WireError::kOk;
    const std::int64_t t1 = wall_ns();
    const RankRequest& req = ctx.request;
    const NodeId* cands = m.frontend->registered().data();
    std::size_t count = m.frontend->registered().size();
    std::int64_t probe_ns = 0;  // whole-registry requests probe nothing
    if (req.candidate_count != 0) {
      const std::int64_t p0 = wall_ns();
      ctx.candidates.clear();
      for (std::size_t j = 0; j < req.candidate_count; ++j) {
        if (m.frontend->is_registered(req.candidates[j])) {
          ctx.candidates.push_back(req.candidates[j]);
        }
      }
      probe_ns = wall_ns() - p0 - timer_ns;
      cands = ctx.candidates.data();
      count = ctx.candidates.size();
    }
    const std::int64_t a0 = wall_ns();
    std::shared_ptr<const core::MetroView> view = m.map->view();
    const std::int64_t a1 = wall_ns();
    RankResponse& resp = ctx.response;
    resp.query_id = req.query_id;
    resp.status = serve::ServeStatus::kOk;
    resp.epoch = view->epoch();
    // serve()'s own dispatch: single-best delay queries take pick_with.
    const bool pick = req.max_results == 1 &&
                      req.metric == core::RankingMetric::kDelay;
    if (pick) {
      const auto best = view->pick_with(req.origin, cands, count, req.metric,
                                        sweep_time(), ctx.scratch, nullptr);
      ctx.ranked.clear();
      if (best.has_value()) ctx.ranked.push_back(*best);
    } else {
      view->rank_topk_into(req.origin, cands, count, req.metric, sweep_time(),
                           req.max_results, ctx.scratch, ctx.ranked);
    }
    const std::int64_t k0 = wall_ns();
    const std::size_t k =
        std::min<std::size_t>(req.max_results, ctx.ranked.size());
    for (std::size_t j = 0; j < k; ++j) {
      auto& e = resp.entries[j];
      const core::ServerRank& r = ctx.ranked[j];
      e.server = r.server;
      e.stale = r.stale;
      e.delay_estimate = r.delay_estimate;
      e.baseline_delay = r.baseline_delay;
      e.bandwidth_estimate = r.bandwidth_estimate;
    }
    resp.entry_count = static_cast<std::uint8_t>(k);
    const std::size_t resp_len =
        serve::encode_rank_response(resp, resp_buf.data(), resp_buf.size());
    const std::int64_t e1 = wall_ns();
    if (pick) {
      // The pruning counts come from a second, untimed pick of the same
      // request, so the timed kernel does exactly what serve() does.
      core::PickStats stats{};
      (void)view->pick_with(req.origin, cands, count, req.metric,
                            sweep_time(), ctx.scratch, &stats);
      out.stats_sum.regions_considered += stats.regions_considered;
      out.stats_sum.regions_pruned += stats.regions_pruned;
      out.stats_sum.candidates_scored += stats.candidates_scored;
      ++out.picks;
    }
    const std::int64_t e2 = wall_ns();
    view.reset();
    const std::int64_t r1 = wall_ns();

    out.decode.push_back(t1 - t0 - timer_ns);
    out.probe.push_back(probe_ns);
    out.acquire.push_back((a1 - a0) + (r1 - e2) - 2 * timer_ns);
    out.kernel.push_back(k0 - a1 - timer_ns);
    out.encode.push_back(e1 - k0 - timer_ns);

    if (i % 2 == 0) paired();
    ++tally.attempted;
    if (!ok || resp_len == 0 ||
        serve::decode_rank_response(resp_buf.data(), resp_len, decoded) !=
            serve::WireError::kOk) {
      ++tally.failed;
    } else if (!client.response_ok(decoded, s.epoch)) {
      ++tally.wrong;
    }
  }
}

void setup_metrics(const ServedMetro& s, Report& report) {
  std::vector<double> ingest_ms, reports_per_s, fill_ms;
  for (const SetupCost& c : s.costs) {
    ingest_ms.push_back(c.ingest_ms);
    reports_per_s.push_back(static_cast<double>(c.reports) /
                            (c.ingest_ms / 1e3));
    fill_ms.insert(fill_ms.end(), c.memo_fill_ms.begin(),
                   c.memo_fill_ms.end());
  }
  report.set("core.ingest_batch_ms", median_of(ingest_ms));
  report.set("core.ingest_reports_per_s", median_of(reports_per_s));
  report.set("core.region_builds_per_publish",
             static_cast<double>(s.costs.back().region_builds));
  report.set("core.memo_fill_ms", median_of(fill_ms));
  // Every origin's memo is filled in setup, so every timed decision hits.
  report.set("core.memo_hit_ratio", 1.0);
  report.set("core.rejected_entries",
             static_cast<double>(s.metro->map->rejected_entries()));
  report.check(s.metro->map->rejected_entries() == 0,
               "sweep ingest rejected no INT entries");
}

/// The traced run of both serve workloads. One producer cycles through
/// three kinds of round, so all three see the same machine conditions:
/// untraced (the end-to-end loop), split (client encode / serve() /
/// client decode timed apart) and stages (serve() taken apart, paired
/// with whole serve() calls). With `mt`, the untraced loop and the stage
/// replay then run on every producer at once.
void traced_serve(const ServedMetro& s, const ServeSpec& spec, bool mt,
                  double seconds, Report& report) {
  const std::int64_t timer_ns = timer_overhead_ns();
  setup_metrics(s, report);

  auto clients = make_clients(s, mt ? mt_producers() : 1);
  Client& client = *clients[0];
  Tally tally;
  std::vector<Served> kept;
  std::vector<std::int64_t> lat, enc, srv, dec;
  for (auto* v : {&lat, &enc, &srv, &dec}) v->reserve(spec.round);
  client.run(spec.round, sweep_time(), s.epoch, lat, tally);  // warm-up

  Rounds untraced;
  std::vector<double> split_ns_per_op, enc_m, srv_m, dec_m;
  StageSamples st;
  std::vector<double> dec_s, probe_s, acq_s, ker_s, encr_s, paired_s;
  std::size_t round = 0;
  lockstep_rounds(
      1, seconds * (mt ? 0.6 : 0.9),
      [&](int) {
        switch (round % 3) {
          case 0:
            lat.clear();
            client.run(spec.round, sweep_time(), s.epoch, lat, tally,
                       kept.empty() ? spec.keep_every : 0,
                       kept.empty() ? &kept : nullptr);
            break;
          case 1:
            enc.clear();
            srv.clear();
            dec.clear();
            client.run_split(spec.round, sweep_time(), timer_ns, enc, srv, dec,
                             tally);
            break;
          default:
            st.clear();
            run_stages(s, client, spec.round, timer_ns, st, tally);
        }
      },
      [&](std::int64_t round_ns) {
        switch (round % 3) {
          case 0:
            untraced.close(lat, round_ns);
            break;
          case 1:
            split_ns_per_op.push_back(static_cast<double>(round_ns) /
                                      static_cast<double>(spec.round));
            enc_m.push_back(median_of(enc));
            srv_m.push_back(median_of(srv));
            dec_m.push_back(median_of(dec));
            break;
          default:
            dec_s.push_back(median_of(st.decode));
            probe_s.push_back(median_of(st.probe));
            acq_s.push_back(median_of(st.acquire));
            ker_s.push_back(median_of(st.kernel));
            encr_s.push_back(median_of(st.encode));
            paired_s.push_back(median_of(st.serve));
        }
        ++round;
      });
  check_kept(s, kept, report);
  report.check(!paired_s.empty() && !srv_m.empty(),
               "traced run covered every kind of round");

  report.set("serve.decisions_per_s_1thread", median_of(untraced.rate_per_s));
  report.set("serve.decision_p99_us", median_of(untraced.p99_us));
  report.set("serve.serve_ns", median_of(srv_m));
  report.set("client.encode_request_ns", median_of(enc_m));
  report.set("client.decode_response_ns", median_of(dec_m));
  report.set("trace.overhead_ratio", median_of(split_ns_per_op) *
                                         median_of(untraced.rate_per_s) / 1e9);
  const double stage_sum = median_of(dec_s) + median_of(probe_s) +
                           median_of(acq_s) + median_of(ker_s) +
                           median_of(encr_s);
  report.set("serve.decode_request_ns", median_of(dec_s));
  report.set("serve.registry_probe_ns", median_of(probe_s));
  report.set("core.view_acquire_ns", median_of(acq_s));
  report.set(mt ? "core.topk_ns" : "core.pick_ns", median_of(ker_s));
  report.set("serve.encode_response_ns", median_of(encr_s));
  report.set("core.stage_sum_ratio", stage_sum / median_of(paired_s));
  if (!mt) {
    const auto& sum = st.stats_sum;
    const auto picks = static_cast<double>(std::max<std::int64_t>(1, st.picks));
    report.set("core.regions_considered",
               static_cast<double>(sum.regions_considered) / picks);
    report.set("core.regions_pruned",
               static_cast<double>(sum.regions_pruned) / picks);
    report.set("core.candidates_scored",
               static_cast<double>(sum.candidates_scored) / picks);
    const auto groups = sum.regions_considered + sum.regions_pruned;
    report.set("core.prune_ratio",
               static_cast<double>(sum.regions_pruned) /
                   static_cast<double>(std::max<std::int64_t>(1, groups)));
  } else {
    const Rounds multi =
        closed_loop(s, spec, mt_producers(), seconds * 0.2, report);
    report.set("serve.decision_p50_us_mt", median_of(multi.p50_us));
    report.set("serve.decision_p99_us_mt", median_of(multi.p99_us));

    // The stage replay on every producer at once: view acquire under
    // the contention of the multi-core phase.
    std::vector<StageSamples> per(clients.size());
    std::vector<Tally> tallies(clients.size());
    std::vector<double> acq_mt;
    std::vector<std::int64_t> pooled;
    lockstep_rounds(
        mt_producers(), seconds * 0.2,
        [&](int p) {
          const auto i = static_cast<std::size_t>(p);
          per[i].clear();
          run_stages(s, *clients[i], spec.round, timer_ns, per[i], tallies[i]);
        },
        [&](std::int64_t) {
          pooled.clear();
          for (const StageSamples& x : per) {
            pooled.insert(pooled.end(), x.acquire.begin(), x.acquire.end());
          }
          acq_mt.push_back(median_of(pooled));
        });
    report.set("core.view_acquire_ns_mt", median_of(acq_mt));
    for (const Tally& t : tallies) tally_into(report, t, "stage replay");
  }
  tally_into(report, tally, "traced decisions");

  std::int64_t malformed = 0, unknown = 0, none = 0;
  for (const auto& c : clients) {
    malformed += c->context().malformed;
    unknown += c->context().unknown_origin;
    none += c->context().no_candidates;
  }
  report.set("serve.malformed", static_cast<double>(malformed));
  report.set("serve.unknown_origin", static_cast<double>(unknown));
  report.set("serve.no_candidates", static_cast<double>(none));
}


}  // namespace

namespace {

/// The untraced run of both serve workloads: each deployment is built
/// (`spec.builds` times, keeping the last), measured for its share of the
/// time — the 1-producer phase for `single_share` of it, the `nproc − 1`
/// producer phase for the rest — checked against the reference, and
/// destroyed before the next is built.
void untraced_serve(const Options& opts, const ServeSpec& spec,
                    double single_share, Report& report) {
  const int deployments = opts.smoke ? 1 : 3;
  const double share = opts.seconds / deployments;
  Rounds single, multi;
  std::vector<double> setups;
  for (int k = 0; k < deployments; ++k) {
    const ServedMetro s = bring_up(
        spec, deployment_seed(opts.seed, static_cast<std::uint64_t>(k)),
        report);
    for (const SetupCost& c : s.costs) setups.push_back(c.total_s);
    std::vector<Served> kept;
    single.append(closed_loop(s, spec, 1, share * single_share, report, &kept));
    if (single_share < 1.0) {
      multi.append(closed_loop(s, spec, mt_producers(),
                               share * (1.0 - single_share), report));
    }
    check_kept(s, kept, report);
  }
  report.set("setup_s", median_of(setups));
  // The 1-producer phase reads the fast end of its rounds (~20 ms each
  // on the small metro). The multi-producer rate stays a median: three
  // producers spread over the cores average the spells out.
  report.set("ops_per_s", single_share < 1.0 ? median_of(multi.rate_per_s)
                                             : single.fast_rate_per_s());
  report.set("op_p50_us", single.fast_p50_us());
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace

namespace {

ServeSpec warm_spec(const Options& opts) {
  ServeSpec spec;
  if (opts.smoke) {
    spec.size = MetroSize::kSmall;
    spec.round = 512;
  }
  return spec;
}

}  // namespace

void trace_warm_metro(const Options& opts, double seconds, Report& report) {
  const ServeSpec spec = warm_spec(opts);
  const ServedMetro s = bring_up(spec, deployment_seed(opts.seed, 0), report);
  traced_serve(s, spec, /*mt=*/false, seconds, report);
}

void run_serve_warm_metro(const Options& opts, Report& report) {
  if (opts.trace) {
    trace_warm_metro(opts, opts.seconds, report);
    return;
  }
  untraced_serve(opts, warm_spec(opts), 1.0, report);
}

void run_serve_small_mt(const Options& opts, Report& report) {
  ServeSpec spec;
  spec.size = MetroSize::kSmall;
  spec.builds = opts.smoke ? 2 : 5;
  spec.round = opts.smoke ? 1024 : 16384;
  spec.keep_every = 64;
  spec.explicit_candidates = true;
  if (opts.trace) {
    const ServedMetro s =
        bring_up(spec, deployment_seed(opts.seed, 0), report);
    traced_serve(s, spec, /*mt=*/true, opts.seconds, report);
    return;
  }
  untraced_serve(opts, spec, 0.4, report);
}

}  // namespace perfbench
