// Ablation (paper §VI future work): compute-aware scheduling. When edge
// servers have a single worker and jobs arrive faster than they execute,
// the purely network-aware scheduler keeps piling tasks onto the
// network-best server; folding load reports into the ranking spreads them.
//
// Flags: --seed=N

#include "bench_common.hpp"
#include "intsched/core/scheduler_service.hpp"
#include "intsched/edge/edge_device.hpp"
#include "intsched/edge/edge_server.hpp"
#include "intsched/telemetry/probe_agent.hpp"

using namespace intsched;

namespace {

double run_arm(bool compute_aware, std::uint64_t seed) {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
  }
  core::SchedulerConfig sched_cfg;
  sched_cfg.compute_aware = compute_aware;
  sched_cfg.load_penalty = sim::SimDuration::seconds(2);
  core::SchedulerService service{*stacks[5], network.topology(),
                                 core::RankerConfig{},
                                 core::NetworkMapConfig{}, sched_cfg};
  for (const core::NodeId id : network.host_ids()) {
    service.register_edge_server(id);
  }
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (net::Host* h : network.hosts()) {
    if (h->id() == network.scheduler_host().id()) continue;
    agents.push_back(std::make_unique<telemetry::ProbeAgent>(
        *h, network.scheduler_host().id()));
    agents.back()->start();
  }

  edge::MetricsCollector metrics;
  edge::EdgeServerConfig server_cfg;
  server_cfg.worker_slots = 1;  // execution is the contended resource
  std::vector<std::unique_ptr<edge::EdgeServer>> servers;
  for (auto& stack : stacks) {
    servers.push_back(
        std::make_unique<edge::EdgeServer>(*stack, metrics, server_cfg));
    servers.back()->enable_load_reports(network.scheduler_host().id(),
                                        sim::SimDuration::milliseconds(250));
  }
  core::DirectIntPolicy policy{service, core::RankingMetric::kDelay};
  edge::EdgeDevice device{*stacks[0], metrics, policy};

  // 12 jobs from node1, 1.5 s apart, each executing for 4 s: a single
  // server can hold at most ~3 without queueing.
  sim::Rng rng = sim::Rng::derive(seed, "compute-aware-workload");
  std::vector<edge::JobSpec> jobs;
  for (int j = 0; j < 12; ++j) {
    edge::JobSpec job;
    job.job_id = j;
    job.submitter = core::NodeId{0};
    edge::TaskSpec spec;
    spec.job_id = j;
    spec.task_index = 0;
    spec.cls = edge::TaskClass::kVerySmall;
    spec.data_bytes = 200 * sim::kKB;
    spec.exec_time = sim::SimDuration::seconds(4);
    job.tasks.push_back(spec);
    job.submit_at = sim::SimTime::seconds(2) +
                    sim::SimDuration::milliseconds(1500 * j) +
                    sim::SimDuration::milliseconds(rng.uniform_int(0, 200));
    jobs.push_back(job);
  }
  for (const auto& job : jobs) {
    sim.schedule_at(job.submit_at, [&device, &job] { device.submit(job); });
  }
  std::int64_t total = static_cast<std::int64_t>(jobs.size());
  device.set_completion_handler([&](const edge::TaskRecord&) {
    if (metrics.completed() >= total) sim.stop();
  });
  sim.run_until(sim::SimTime::seconds(600));

  sim::RunningStats completion;
  for (const edge::TaskRecord* r : metrics.records()) {
    if (r->is_complete()) completion.add(r->completion_time().to_seconds());
  }
  return completion.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchtool::parse_options(argc, argv);
  std::cout << "Ablation: compute-aware scheduling (paper SVI future "
               "work)\nSingle-worker servers, 4 s tasks arriving every "
               "1.5 s from one device.\n\n";

  exp::TextTable table{"mean task completion time (s)"};
  table.set_headers({"scheduler", "mean completion"});
  const double plain = run_arm(false, opts.seed);
  const double aware = run_arm(true, opts.seed);
  table.add_row({"network-aware only", exp::fmt_seconds(plain)});
  table.add_row({"network + compute aware", exp::fmt_seconds(aware)});
  table.print(std::cout);
  std::cout << "gain from load awareness: "
            << exp::fmt_percent(exp::percent_gain(plain, aware)) << "\n";
  return 0;
}
