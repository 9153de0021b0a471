// Reproduces paper Fig. 3: max queue length and end-to-end delay at
// increasing egress-port utilization.
//
// Setup (per the paper): two hosts connected via one P4 switch, 10 ms
// links, ~20 Mbps effective switch capacity. iperf generates fixed-rate
// traffic at x% of capacity; ping samples RTT every second; an INT probe
// every 100 ms collects and resets the max-queue register.
//
// Flags: --full   run 300 s per point (paper duration; default 60 s)
//        --csv    emit a CSV block after the table
// (fixed seed; any other flag exits 2 with the usage line, --help prints
// it and exits 0)

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "intsched/exp/report.hpp"
#include "intsched/net/topology.hpp"
#include "intsched/p4/switch.hpp"
#include "intsched/sim/simulator.hpp"
#include "intsched/sim/stats.hpp"
#include "intsched/telemetry/collector.hpp"
#include "intsched/telemetry/int_program.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/iperf.hpp"
#include "intsched/transport/ping.hpp"

using namespace intsched;

namespace {

struct PointResult {
  double utilization = 0.0;
  double offered_mbps = 0.0;
  double avg_max_queue = 0.0;  ///< mean of per-probe-interval maxima
  double p95_max_queue = 0.0;
  // intsched-lint: allow(raw-unit): display statistics, fractional ms
  double avg_rtt_ms = 0.0;
  // intsched-lint: allow(raw-unit): display statistic, fractional ms
  double max_rtt_ms = 0.0;
  double loss_percent = 0.0;
};

PointResult run_point(double utilization, sim::SimTime duration,
                      std::uint64_t seed) {
  sim::Simulator simulator;
  net::Topology topo{simulator};

  auto& h1 = topo.add_node<net::Host>("h1");
  auto& h2 = topo.add_node<net::Host>("h2");
  p4::SwitchConfig sw_cfg;
  sw_cfg.seed = seed;
  auto& s1 = topo.add_node<p4::P4Switch>("s1", sw_cfg);

  net::LinkConfig link;  // 100 Mbps, 10 ms — switch processing dominates
  topo.connect(h1, s1, link);
  topo.connect(h2, s1, link);
  topo.install_routes();
  s1.load_program(std::make_unique<telemetry::IntTelemetryProgram>());

  transport::HostStack stack1{h1};
  transport::HostStack stack2{h2};
  transport::PingResponder responder{stack2};
  transport::IperfUdpSink sink{stack2};

  // The effective per-port capacity: serialization + mean processing.
  const sim::SimDuration per_pkt =
      link.rate.transmission_time(1500) + sw_cfg.proc_delay_mean;
  const auto capacity = sim::DataRate::bits_per_second(
      1500.0 * 8.0 / per_pkt.to_seconds());

  transport::IperfUdpSender::Config flow;
  flow.rate = capacity * utilization;
  flow.packet_size = 1500;
  transport::IperfUdpSender iperf{stack1, h2.id(), flow};
  if (utilization > 0.0) iperf.start((duration).since_epoch());

  transport::PingApp ping{stack1, h2.id()};
  ping.start();

  // Probe h1 -> h2 so probes traverse the congested egress port
  // (s1 toward h2); the collector on h2 terminates the INT data.
  telemetry::ProbeAgent agent{h1, h2.id()};
  telemetry::IntCollector collector{h2};
  stack2.bind_udp(net::kProbePort, [&](const net::Packet& p) {
    collector.handle_packet(p);
  });
  sim::RunningStats queue_stats;
  sim::Ecdf queue_ecdf;
  collector.set_handler([&](const telemetry::ProbeReport& report) {
    for (const auto& entry : report.entries) {
      queue_stats.add(static_cast<double>(entry.max_queue_pkts));
      queue_ecdf.add(static_cast<double>(entry.max_queue_pkts));
    }
  });
  agent.start();

  simulator.run_until(duration);

  PointResult r;
  r.utilization = utilization;
  r.offered_mbps = flow.rate.mbps();
  r.avg_max_queue = queue_stats.mean();
  r.p95_max_queue = queue_ecdf.count() > 0 ? queue_ecdf.quantile(0.95) : 0.0;
  r.avg_rtt_ms = ping.rtt_ms().mean();
  r.max_rtt_ms = ping.rtt_ms().max();
  if (iperf.packets_sent() > 0) {
    r.loss_percent = 100.0 *
                     static_cast<double>(iperf.packets_sent() -
                                         sink.packets_received()) /
                     static_cast<double>(iperf.packets_sent());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool csv = false;
  const benchtool::Flag flags[] = {
      {"--full", benchtool::set_true(full)},
      {"--csv", benchtool::set_true(csv)},
  };
  benchtool::parse_flags_or_exit(
      argc, argv, flags,
      "usage: fig3_queue_vs_util [--full] [--csv] [--help]\n");
  const sim::SimTime duration =
      full ? sim::SimTime::seconds(300) : sim::SimTime::seconds(60);

  std::cout << "Fig. 3 reproduction: max queue length and RTT vs egress "
               "utilization\n"
            << "(paper: queue < 5 pkts below 50% load, > 30 pkts near "
               "saturation;\n"
            << " RTT ~40 ms baseline, gradual rise to ~50-60 ms at 80%, "
               "sharp jump at 100%)\n\n";

  std::vector<PointResult> results;
  for (int pct = 0; pct <= 100; pct += 10) {
    results.push_back(
        run_point(static_cast<double>(pct) / 100.0, duration, 42));
  }

  exp::TextTable table{"Fig 3: queue occupancy & delay vs utilization"};
  table.set_headers({"util%", "offered Mbps", "avg max queue", "p95 queue",
                     "avg RTT ms", "max RTT ms", "loss%"});
  for (const PointResult& r : results) {
    table.add_row({std::to_string(static_cast<int>(r.utilization * 100)),
                   exp::fmt_seconds(r.offered_mbps),
                   exp::fmt_seconds(r.avg_max_queue),
                   exp::fmt_seconds(r.p95_max_queue),
                   exp::fmt_seconds(r.avg_rtt_ms),
                   exp::fmt_seconds(r.max_rtt_ms),
                   exp::fmt_seconds(r.loss_percent)});
  }
  table.print(std::cout);

  if (csv) {
    std::cout << "csv:util,offered_mbps,avg_max_queue,p95_queue,avg_rtt_ms,"
                 "max_rtt_ms,loss_pct\n";
    for (const PointResult& r : results) {
      exp::write_csv_row(
          std::cout,
          {exp::fmt_seconds(r.utilization), exp::fmt_seconds(r.offered_mbps),
           exp::fmt_seconds(r.avg_max_queue), exp::fmt_seconds(r.p95_max_queue),
           exp::fmt_seconds(r.avg_rtt_ms), exp::fmt_seconds(r.max_rtt_ms),
           exp::fmt_seconds(r.loss_percent)});
    }
  }
  return 0;
}
