#include "intsched/exp/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "intsched/core/scheduler_service.hpp"
#include "intsched/edge/edge_device.hpp"
#include "intsched/sim/logging.hpp"
#include "intsched/sim/strfmt.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/host_stack.hpp"
#include "intsched/transport/iperf.hpp"

namespace intsched::exp {
namespace {

core::RankingMetric metric_for(core::PolicyKind policy) {
  return policy == core::PolicyKind::kIntBandwidth
             ? core::RankingMetric::kBandwidth
             : core::RankingMetric::kDelay;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Simulator sim;

  Fig4Config net_cfg = config.network;
  net_cfg.seed = config.seed;
  Fig4Network network{sim, net_cfg};
  const std::vector<core::NodeId> host_ids = network.host_ids();
  const core::NodeId scheduler_id = network.scheduler_host().id();

  // Host stacks + iperf sinks (background traffic needs a receiver
  // everywhere).
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  std::vector<std::unique_ptr<transport::IperfUdpSink>> sinks;
  transport::HostStack* scheduler_stack_ptr = nullptr;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
    sinks.push_back(std::make_unique<transport::IperfUdpSink>(*stacks.back()));
    if (h->id() == scheduler_id) scheduler_stack_ptr = stacks.back().get();
  }
  if (scheduler_stack_ptr == nullptr) {
    throw std::logic_error(
        "Fig4Network: scheduler host missing from hosts()");
  }
  transport::HostStack& scheduler_stack = *scheduler_stack_ptr;

  // Fault injection: only instantiated when the plan actually does
  // something, so fault-free configs keep null fault pointers everywhere
  // (byte-identical to the seed).
  std::unique_ptr<net::FaultPlan> fault_plan;
  if (config.faults.enabled()) {
    fault_plan = std::make_unique<net::FaultPlan>(config.faults);
    fault_plan->arm(network.topology());
  }

  // Scheduler service. The freshness window tracks the probing interval:
  // "maximum observed queue size in the last probing interval".
  core::NetworkMapConfig map_cfg;
  map_cfg.nominal_capacity = config.background.nominal_capacity;
  map_cfg.queue_window = std::max(sim::SimDuration::millis(150),
                                  (config.probe_interval * 3) / 2);
  map_cfg.link_staleness = config.telemetry_staleness;
  core::SchedulerService service{scheduler_stack, config.ranker, map_cfg,
                                 config.scheduler};
  for (const core::NodeId id : host_ids) service.register_edge_server(id);

  // Probe agents on every edge server (all non-scheduler hosts), staggered
  // across the interval so probe arrivals interleave.
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  {
    const auto route_plan =
        config.optimize_probe_routes
            ? network.plan_probe_routes()
            : std::map<core::NodeId, std::vector<core::NodeId>>{};
    std::int64_t idx = 0;
    const auto n =
        static_cast<std::int64_t>(network.hosts().size() - 1);
    for (net::Host* h : network.hosts()) {
      if (h->id() == scheduler_id) continue;
      telemetry::ProbeConfig pc;
      pc.interval = config.probe_interval;
      pc.start_offset = (config.probe_interval * idx) / n;
      pc.faults = fault_plan.get();
      if (const auto it = route_plan.find(h->id());
          it != route_plan.end()) {
        pc.waypoints = it->second;
      }
      agents.push_back(
          std::make_unique<telemetry::ProbeAgent>(*h, scheduler_id, pc));
      agents.back()->start();
      ++idx;
    }
  }

  // Selection policies.
  std::vector<std::unique_ptr<core::SchedulerClient>> clients;
  std::vector<std::unique_ptr<core::SelectionPolicy>> policies;
  core::NearestPolicy nearest{network.topology(), host_ids};
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    switch (config.policy) {
      case core::PolicyKind::kIntDelay:
      case core::PolicyKind::kIntBandwidth: {
        const core::RankingMetric metric = metric_for(config.policy);
        if (stacks[i]->host().id() == scheduler_id) {
          policies.push_back(
              std::make_unique<core::DirectIntPolicy>(service, metric));
        } else {
          clients.push_back(std::make_unique<core::SchedulerClient>(
              *stacks[i], scheduler_id));
          policies.push_back(std::make_unique<core::IntPolicy>(
              *clients.back(), metric));
        }
        break;
      }
      case core::PolicyKind::kNearest: {
        // Shared table, per-device facade.
        class NearestFacade : public core::SelectionPolicy {
         public:
          explicit NearestFacade(core::NearestPolicy& inner)
              : inner_{inner} {}
          void select(core::NodeId device, std::int32_t count,
                      const std::vector<std::string>& requirements,
                      SelectionHandler handler) override {
            inner_.select(device, count, requirements, std::move(handler));
          }
          [[nodiscard]] core::PolicyKind kind() const override {
            return core::PolicyKind::kNearest;
          }

         private:
          core::NearestPolicy& inner_;
        };
        policies.push_back(std::make_unique<NearestFacade>(nearest));
        break;
      }
      case core::PolicyKind::kRandom:
        policies.push_back(std::make_unique<core::RandomPolicy>(
            host_ids,
            sim::Rng::derive(config.seed, sim::cat("random-policy-", i))));
        break;
    }
  }

  // Edge servers and devices on every host.
  edge::MetricsCollector metrics;
  std::vector<std::unique_ptr<edge::EdgeServer>> servers;
  std::vector<std::unique_ptr<edge::EdgeDevice>> devices;
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    servers.push_back(std::make_unique<edge::EdgeServer>(
        *stacks[i], metrics, config.server));
    if (config.scheduler.compute_aware) {
      servers.back()->enable_load_reports(scheduler_id);
    }
    devices.push_back(std::make_unique<edge::EdgeDevice>(
        *stacks[i], metrics, *policies[i]));
  }

  // Background congestion.
  BackgroundConfig bg_cfg = config.background;
  bg_cfg.seed = config.seed;
  std::vector<transport::HostStack*> stack_ptrs;
  for (const auto& s : stacks) stack_ptrs.push_back(s.get());
  BackgroundTraffic background{sim, stack_ptrs, bg_cfg};
  background.start();

  // Workload (identical across policy arms: derived stream of the seed).
  sim::Rng workload_rng = sim::Rng::derive(config.seed, "workload");
  const std::vector<edge::JobSpec> jobs =
      edge::generate_workload(config.workload, host_ids, workload_rng);
  std::int64_t total_tasks = 0;
  for (const edge::JobSpec& job : jobs) {
    total_tasks += static_cast<std::int64_t>(job.tasks.size());
    sim.schedule_at(job.submit_at, [&devices, &job] {
      devices[job.submitter.index()]->submit(job);
    });
  }

  // Stop as soon as the last task completes.
  for (const auto& device : devices) {
    device->set_completion_handler(
        [&metrics, &sim, total_tasks](const edge::TaskRecord&) {
          if (metrics.completed() >= total_tasks) sim.stop();
        });
  }

  sim.run_until(sim::SimTime::at(config.max_duration));

  ExperimentResult result;
  result.tasks_total = total_tasks;
  result.tasks_completed = metrics.completed();
  result.sim_duration = sim.now().since_epoch();
  result.events_executed = sim.events_executed();
  for (const auto& agent : agents) {
    result.probes_sent += agent->probes_sent();
    result.probe_bytes_sent += agent->bytes_sent();
  }
  result.probe_reports = service.map().reports_ingested();
  result.queries_served = service.queries_served();
  for (const p4::P4Switch* sw : network.switches()) {
    result.switch_queue_drops += sw->queue_drops();
  }
  result.background_flows = background.flows_started();
  if (fault_plan != nullptr) {
    const net::FaultCounters& fc = fault_plan->counters();
    result.degradation.probes_dropped = fc.probes_dropped;
    result.degradation.probes_delayed = fc.probes_delayed;
    result.degradation.probes_duplicated = fc.probes_duplicated;
    result.degradation.packets_lost_link_down = fc.packets_lost_link_down;
    result.degradation.link_flap_events =
        fc.link_down_events + fc.link_up_events;
    result.degradation.switch_kills = fc.switch_kills;
    result.degradation.switch_restarts = fc.switch_restarts;
  }
  result.degradation.malformed_reports = service.collector().malformed();
  result.degradation.rejected_entries =
      service.map().rejected_entries();
  result.degradation.stale_lookups = service.stale_lookups();
  result.degradation.fallback_decisions = service.fallback_decisions();
  result.metrics = std::move(metrics);
  return result;
}

std::map<core::PolicyKind, ExperimentResult> run_policy_suite(
    const ExperimentConfig& base,
    const std::vector<core::PolicyKind>& arms) {
  std::map<core::PolicyKind, ExperimentResult> results;
  for (const core::PolicyKind policy : arms) {
    ExperimentConfig cfg = base;
    cfg.policy = policy;
    results.emplace(policy, run_experiment(cfg));
  }
  return results;
}

}  // namespace intsched::exp
