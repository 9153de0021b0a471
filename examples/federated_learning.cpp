// Distributed-computing scenario — the paper's second workload, motivated
// by federated/distributed ML training: each round ships a model shard to
// three edge servers, waits for all three "training" tasks, then starts
// the next round (synchronous rounds, straggler-bound).
//
// The example drives the public API directly (no experiment harness):
// topology, scheduler service, probes, devices — and reports per-round
// makespan under bandwidth-based ranking vs the nearest baseline.
//
// Run: ./build/examples/federated_learning

#include <iostream>

#include "intsched/core/scheduler_service.hpp"
#include "intsched/edge/edge_device.hpp"
#include "intsched/edge/edge_server.hpp"
#include "intsched/exp/background.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/exp/report.hpp"
#include "intsched/telemetry/probe_agent.hpp"

using namespace intsched;

namespace {

std::uint64_t g_seed = 5;  // override with argv[1]; single-coordinator rounds are noisy

constexpr int kRounds = 6;
constexpr sim::Bytes kShardBytes = 2 * sim::kMB;
constexpr auto kLocalTrainTime = sim::SimDuration::seconds(4);

struct Deployment {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  std::vector<std::unique_ptr<transport::IperfUdpSink>> sinks;
  std::unique_ptr<core::SchedulerService> scheduler;
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> probes;
  std::unique_ptr<core::SchedulerClient> client;
  std::unique_ptr<core::SelectionPolicy> policy;
  std::unique_ptr<core::NearestPolicy> nearest;
  edge::MetricsCollector metrics;
  std::vector<std::unique_ptr<edge::EdgeServer>> servers;
  std::unique_ptr<edge::EdgeDevice> coordinator;
  std::unique_ptr<exp::BackgroundTraffic> background;
  std::vector<double> round_makespans;

  explicit Deployment(bool network_aware) {
    for (net::Host* h : network.hosts()) {
      stacks.push_back(std::make_unique<transport::HostStack>(*h));
      sinks.push_back(
          std::make_unique<transport::IperfUdpSink>(*stacks.back()));
    }
    scheduler = std::make_unique<core::SchedulerService>(
        *stacks[5], network.topology(),
        core::RankerConfig{}, core::NetworkMapConfig{});
    for (const core::NodeId id : network.host_ids()) {
      scheduler->register_edge_server(id);
      servers.push_back(std::make_unique<edge::EdgeServer>(
          *stacks[id.index()], metrics));
    }
    for (net::Host* h : network.hosts()) {
      if (h->id() == network.scheduler_host().id()) continue;
      probes.push_back(std::make_unique<telemetry::ProbeAgent>(
          *h, network.scheduler_host().id()));
      probes.back()->start();
    }
    if (network_aware) {
      client = std::make_unique<core::SchedulerClient>(
          *stacks[0], network.scheduler_host().id());
      policy = std::make_unique<core::IntPolicy>(
          *client, core::RankingMetric::kBandwidth);
    } else {
      nearest = std::make_unique<core::NearestPolicy>(network.topology(),
                                                      network.host_ids());
      struct Facade : core::SelectionPolicy {
        core::NearestPolicy& inner;
        explicit Facade(core::NearestPolicy& n) : inner{n} {}
        void select(core::NodeId device, std::int32_t count,
                    const std::vector<std::string>& requirements,
                    SelectionHandler handler) override {
          inner.select(device, count, requirements, std::move(handler));
        }
        [[nodiscard]] core::PolicyKind kind() const override {
          return core::PolicyKind::kNearest;
        }
      };
      policy = std::make_unique<Facade>(*nearest);
    }
    coordinator =
        std::make_unique<edge::EdgeDevice>(*stacks[0], metrics, *policy);

    exp::BackgroundConfig bg;
    bg.mode = exp::BackgroundMode::kRandomPairs;  // 1-2 roaming flows
    bg.seed = g_seed;
    std::vector<transport::HostStack*> ptrs;
    for (const auto& s : stacks) ptrs.push_back(s.get());
    background = std::make_unique<exp::BackgroundTraffic>(sim, ptrs, bg);
    background->start();
  }

  void run_round(int round) {
    edge::JobSpec job;
    job.job_id = round;
    job.kind = edge::WorkloadKind::kDistributed;
    job.cls = edge::TaskClass::kSmall;
    job.submitter = core::NodeId{0};
    for (int t = 0; t < 3; ++t) {
      edge::TaskSpec spec;
      spec.job_id = round;
      spec.task_index = t;
      spec.cls = edge::TaskClass::kSmall;
      spec.data_bytes = kShardBytes;
      spec.exec_time = kLocalTrainTime;
      job.tasks.push_back(spec);
    }
    const sim::SimTime start = sim.now();
    int done = 0;
    coordinator->set_completion_handler([&](const edge::TaskRecord& r) {
      if (r.job_id == round && ++done == 3) sim.stop();
    });
    coordinator->submit(job);
    sim.run_until(sim::SimTime::seconds(3600));
    round_makespans.push_back((sim.now() - start).to_seconds());
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) g_seed = std::stoull(argv[1]);
  std::cout << "Federated-learning rounds: 3 x " << kShardBytes / sim::kMB
            << " MB shards per round, synchronous barrier per round\n\n";

  Deployment aware{true};
  Deployment baseline{false};
  // Let probes populate the network map before the first round.
  aware.sim.run_until(sim::SimTime::seconds(2));
  baseline.sim.run_until(sim::SimTime::seconds(2));

  exp::TextTable table{"per-round makespan (s): transfer + training + ack"};
  table.set_headers({"round", "nearest", "int-bandwidth", "gain"});
  double total_n = 0.0;
  double total_a = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    baseline.run_round(round);
    aware.run_round(round);
    const double tn = baseline.round_makespans.back();
    const double ta = aware.round_makespans.back();
    total_n += tn;
    total_a += ta;
    table.add_row({std::to_string(round), exp::fmt_seconds(tn),
                   exp::fmt_seconds(ta),
                   exp::fmt_percent(exp::percent_gain(tn, ta))});
  }
  table.print(std::cout);
  std::cout << "total training wall-clock: nearest "
            << exp::fmt_seconds(total_n) << " s, network-aware "
            << exp::fmt_seconds(total_a) << " s ("
            << exp::fmt_percent(exp::percent_gain(total_n, total_a))
            << " gain)\n";
  return 0;
}
