// paper_fig5: the Fig. 5 serverless experiment at the bench default scale
// (120 tasks, one repetition) — the int-delay, nearest and random arms run
// serially, each through one exp::run_experiment call on this thread.
// One pass of the three arms is one round; passes repeat until the time
// budget is spent (at least kClaimPasses of them), each pass on its own
// experiment seed derived from --seed (so one run averages over several
// generated workloads). The simulator loop (event queue, P4 pipeline, TCP,
// collector, SchedulerService ingest + ranking) is timed from outside.

#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "intsched/core/policies.hpp"
#include "intsched/edge/workload.hpp"
#include "intsched/exp/experiment.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = intsched::core;
namespace edge = intsched::edge;
namespace exp = intsched::exp;
namespace sim = intsched::sim;

namespace {

/// Passes whose pooled mean completion times decide the paper's claim. A
/// fixed count, not every pass of the run, so that the verdict depends on
/// --seed only and not on how many passes the host fits into --seconds.
constexpr std::size_t kClaimPasses = 4;

/// The repository's own Fig. 5 configuration at default scale (the one
/// bench/fig5 reports), on this run's seed; --smoke shrinks the task count.
exp::ExperimentConfig fig5_config(const Options& opts) {
  intsched::benchtool::Options bench_opts;
  bench_opts.seed = opts.seed;
  exp::ExperimentConfig cfg = intsched::benchtool::make_base_config(
      edge::WorkloadKind::kServerless, bench_opts);
  if (opts.smoke) cfg.workload.total_tasks = 40;
  return cfg;
}

/// Sum and count of the completion times of an arm's completed tasks.
struct Completion {
  double sum_s = 0.0;
  std::int64_t n = 0;

  void add(const exp::ExperimentResult& r) {
    for (const edge::TaskRecord* t : r.metrics.records()) {
      if (!t->is_complete()) continue;
      sum_s += t->completion_time().to_seconds();
      ++n;
    }
  }
  [[nodiscard]] double mean_s() const {
    return n == 0 ? 0.0 : sum_s / static_cast<double>(n);
  }
};

double mean_completion_s(const exp::ExperimentResult& r) {
  Completion c;
  c.add(r);
  return c.mean_s();
}

/// One deployment of the whole experiment through run_experiment itself,
/// stopped at sim time 0: network and P4 switches, host stacks and sinks,
/// SchedulerService, probe agents, policies, edge servers and devices,
/// background traffic and the generated workload are built, the events
/// due at time 0 run, and everything is torn down again.
double setup_once(exp::ExperimentConfig cfg, core::PolicyKind policy,
                  Report& report) {
  cfg.policy = policy;
  cfg.max_duration = sim::SimDuration::zero();
  const std::int64_t t0 = wall_ns();
  const exp::ExperimentResult r = exp::run_experiment(cfg);
  const std::int64_t t1 = wall_ns();
  report.check(r.tasks_total == cfg.workload.total_tasks &&
                   r.tasks_completed == 0 &&
                   r.sim_duration == sim::SimDuration::zero(),
               "fig5 set-up built the whole workload and stopped at time 0");
  return static_cast<double>(t1 - t0) / 1e9;
}

struct Arm {
  core::PolicyKind policy;
  const char* name;
};

constexpr Arm kArms[] = {{core::PolicyKind::kIntDelay, "int-delay"},
                         {core::PolicyKind::kNearest, "nearest"},
                         {core::PolicyKind::kRandom, "random"}};

}  // namespace

void run_paper_fig5(const Options& opts, Report& report) {
  const exp::ExperimentConfig base = fig5_config(opts);

  // Set-up takes a fraction of a millisecond, and on a shared 4-vCPU KVM
  // guest its cost alternates between about 0.20 and 0.34 ms within tens
  // of milliseconds, so it is timed many times, in a batch before every
  // pass (spread over the whole run), cycling through the three arms
  // (their policies differ in what they build), and reported as the
  // median.
  std::vector<double> setups;
  const int setup_builds_per_pass = opts.smoke ? 3 : 51;

  // Per arm: host seconds and ns per simulated event of every pass.
  std::vector<double> arm_wall[3], arm_ns_per_event[3], per_event_us;
  std::vector<double> pass_events_per_s, pass_wall_s;
  // The first pass's results: its counts depend only on --seed.
  exp::ExperimentResult first[3];
  exp::ExperimentResult current[3];
  // Completion times of the int-delay and nearest arms, pooled over the
  // first kClaimPasses passes.
  Completion claim_int, claim_nearest;
  const auto budget = static_cast<std::int64_t>(opts.seconds * 1e9);
  std::int64_t spent = 0;
  std::uint64_t pass = 0;
  do {
    for (int i = 0; i < setup_builds_per_pass; ++i) {
      setups.push_back(setup_once(base, kArms[i % 3].policy, report));
    }
    // Distinct per pass for the first 64 passes of a run, and apart from
    // every other run's seeds.
    const std::uint64_t pass_seed = opts.seed * 64 + pass++;
    std::int64_t pass_ns = 0;
    std::int64_t pass_events = 0;
    for (std::size_t a = 0; a < 3; ++a) {
      exp::ExperimentConfig cfg = base;
      cfg.seed = pass_seed;
      cfg.policy = kArms[a].policy;
      const std::int64_t t0 = wall_ns();
      exp::ExperimentResult r = exp::run_experiment(cfg);
      const std::int64_t dt = wall_ns() - t0;
      pass_ns += dt;
      pass_events += r.events_executed;
      report.op(r.tasks_total > 0 && r.tasks_completed == r.tasks_total,
                "fig5 arm completed every task");
      // Only the int-delay arm asks the scheduler; an arm that answers
      // without it is not the paper's INT-based selection.
      report.check((r.queries_served > 0) ==
                       (kArms[a].policy == core::PolicyKind::kIntDelay),
                   "fig5: only the int-delay arm queries the scheduler");
      const double ns_per_event =
          static_cast<double>(dt) / static_cast<double>(r.events_executed);
      arm_wall[a].push_back(static_cast<double>(dt) / 1e9);
      arm_ns_per_event[a].push_back(ns_per_event);
      per_event_us.push_back(ns_per_event / 1e3);
      current[a] = std::move(r);
    }
    if (pass <= kClaimPasses) {
      claim_int.add(current[0]);
      claim_nearest.add(current[1]);
    }
    if (pass == 1) std::swap(first, current);
    spent += pass_ns;
    pass_wall_s.push_back(static_cast<double>(pass_ns) / 1e9);
    pass_events_per_s.push_back(static_cast<double>(pass_events) * 1e9 /
                                static_cast<double>(pass_ns));
  } while (spent < budget || pass < kClaimPasses);

  // The paper's claim, pooled as bench/fig5 pools its repetitions: a
  // single 120-task pass is too small for it to hold on every seed.
  if (!(claim_int.mean_s() < claim_nearest.mean_s())) {
    std::cerr << "perfbench: fig5 seeds " << opts.seed * 64 << ".."
              << opts.seed * 64 + kClaimPasses - 1
              << ": int-delay mean completion " << claim_int.mean_s()
              << " s is not below nearest's " << claim_nearest.mean_s()
              << " s\n";
  }
  report.check(claim_int.mean_s() < claim_nearest.mean_s(),
               "fig5: int-delay mean completion below nearest's (pooled)");

  if (!opts.trace) {
    report.set("setup_s", median_of(setups));
    report.set("ops_per_s", median_of(pass_events_per_s));
    report.set("op_p50_us", median_of(per_event_us));
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  report.set("exp.sim_wall_s", median_of(pass_wall_s));
  report.set("sim.events_per_s", median_of(pass_events_per_s));
  for (std::size_t a = 0; a < 3; ++a) {
    const std::string arm = kArms[a].name;
    const exp::ExperimentResult& r = first[a];
    report.set("exp.arm_wall_s." + arm, median_of(arm_wall[a]));
    report.set("sim.ns_per_event." + arm, median_of(arm_ns_per_event[a]));
    report.set("sim.events." + arm, static_cast<double>(r.events_executed));
    report.set("telemetry.probe_reports." + arm,
               static_cast<double>(r.probe_reports));
    report.set("core.queries." + arm, static_cast<double>(r.queries_served));
    report.set("p4.queue_drops." + arm,
               static_cast<double>(r.switch_queue_drops));
    report.set("edge.tasks_completed." + arm,
               static_cast<double>(r.tasks_completed));
    report.set("edge.mean_completion_s." + arm, mean_completion_s(r));
  }
  report.set("edge.int_delay_gain_vs_nearest",
             (claim_nearest.mean_s() - claim_int.mean_s()) /
                 claim_nearest.mean_s());
}

}  // namespace perfbench
