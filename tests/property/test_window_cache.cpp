// Property suites for the scheduler's two caches:
//  - the NetworkMap's monotonic max-deque (window-max congestion queries)
//    must answer exactly like a naive scan over every sample ever
//    ingested, for randomized sequences including late stragglers;
//  - SchedulerService's lazily published view (and the Dijkstra memo it
//    carries) must never serve a ranking computed before the latest
//    applied probe report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "intsched/core/network_map.hpp"
#include "intsched/core/scheduler_service.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/sim/rng.hpp"
#include "support/flat_ranker.hpp"

namespace intsched {
namespace {

// ---------------------------------------------------------------------
// Monotonic max-deque vs the naive reference model.

/// Single-device probe report carrying one set of register values.
telemetry::ProbeReport queue_report(core::NodeId device, std::int64_t max_q,
                                    std::int64_t avg_q_x100,
                                    sim::SimDuration hop_latency) {
  telemetry::ProbeReport report;
  report.src = core::NodeId{100};
  report.dst = core::NodeId{101};
  net::IntStackEntry entry;
  entry.device = device;
  entry.ingress_port = 0;
  entry.egress_port = 1;
  entry.max_queue_pkts = max_q;
  entry.device_max_queue_pkts = max_q;
  entry.device_avg_queue_x100 = avg_q_x100;
  entry.max_hop_latency = hop_latency;
  report.entries.push_back(entry);
  return report;
}

/// The reference model: every sample ever ingested, scanned in full.
struct NaiveSeries {
  std::vector<std::pair<sim::SimTime, std::int64_t>> samples;

  [[nodiscard]] std::int64_t max_from(sim::SimTime cutoff) const {
    std::int64_t best = 0;
    for (const auto& [t, v] : samples) {
      if (t >= cutoff) best = std::max(best, v);
    }
    return best;
  }
};

TEST(WindowMaxProperty, MatchesNaiveScanOverRandomizedSequences) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    sim::Rng rng{seed};
    core::NetworkMapConfig cfg;
    cfg.queue_window = sim::SimDuration::milliseconds(
        rng.uniform_int(50, 400));
    core::NetworkMap map{cfg};
    const core::NodeId device{7};

    NaiveSeries naive_max;
    NaiveSeries naive_avg;
    sim::SimTime high_water = sim::SimTime::zero();

    sim::SimTime now = sim::SimTime::zero();
    for (int step = 0; step < 400; ++step) {
      now += sim::SimDuration::microseconds(rng.uniform_int(0, 40'000));
      // ~10% of ingests are late stragglers: an older report arriving
      // after newer ones (reordered probe delivery).
      sim::SimTime at = now;
      if (rng.chance(0.1) && high_water > sim::SimTime::zero()) {
        at = sim::SimTime::nanoseconds(
            rng.uniform_int(0, high_water.ns()));
      }
      high_water = std::max(high_water, at);

      const std::int64_t max_q = rng.uniform_int(0, 64);
      const std::int64_t avg_q = rng.uniform_int(0, 4'000);
      map.ingest(queue_report(device, max_q, avg_q,
                              sim::SimDuration::microseconds(max_q)),
                 at);
      naive_max.samples.push_back({at, max_q});
      naive_avg.samples.push_back({at, avg_q});

      // Query at the newest time seen and at a few later instants (the
      // scheduler always queries at the current sim time, which can only
      // move forward past every ingest).
      for (const std::int64_t ahead_us : {std::int64_t{0},
                                          rng.uniform_int(0, 500'000)}) {
        const sim::SimTime q_now =
            high_water + sim::SimDuration::microseconds(ahead_us);
        const sim::SimTime cutoff = q_now - cfg.queue_window;
        ASSERT_EQ(map.device_max_queue(device, q_now),
                  naive_max.max_from(cutoff))
            << "seed=" << seed << " step=" << step;
        ASSERT_EQ(map.device_avg_queue(device, q_now),
                  static_cast<double>(naive_avg.max_from(cutoff)) / 100.0)
            << "seed=" << seed << " step=" << step;
      }
    }
  }
}

TEST(WindowMaxProperty, EmptyAndExpiredWindowsReadZero) {
  core::NetworkMapConfig cfg;
  cfg.queue_window = sim::SimDuration::milliseconds(100);
  core::NetworkMap map{cfg};

  // Unknown device: the paper's "assume uncongested" fallback.
  EXPECT_EQ(map.device_max_queue(core::NodeId{3}, sim::SimTime::seconds(1)), 0);

  map.ingest(queue_report(core::NodeId{3}, 40, 1000, sim::SimDuration::zero()),
             sim::SimTime::seconds(1));
  EXPECT_EQ(map.device_max_queue(core::NodeId{3}, sim::SimTime::seconds(1)), 40);
  // Every sample older than the window: back to zero, without mutation.
  EXPECT_EQ(map.device_max_queue(core::NodeId{3}, sim::SimTime::seconds(10)), 0);
  // The sample is still there for a query window that covers it.
  EXPECT_EQ(map.device_max_queue(core::NodeId{3},
                                 sim::SimTime::seconds(1) +
                                     sim::SimDuration::milliseconds(50)),
            40);
}

// ---------------------------------------------------------------------
// Lazily published view: SchedulerService applies each probe report to
// its map without publishing and publishes on the next read. Every
// ranking must be indistinguishable from the flat oracle's over every
// report applied so far, and reads with nothing new applied must reuse
// the published view.

std::string render_ranks(const std::vector<core::ServerRank>& ranks) {
  std::ostringstream out;
  for (const core::ServerRank& r : ranks) {
    out << r.server << '|' << r.delay_estimate.ns() << '|'
        << r.bandwidth_estimate.bps() << '|'
        << r.baseline_delay.ns() << '\n';
  }
  return out.str();
}

/// A scheduler on the Fig. 4 scheduler host fed hand-made probe packets
/// (no probe agents run): a two-switch chain src -> s1 -> s2 -> scheduler
/// per probe, so the test controls every report the map sees.
struct LazyPublishFixture {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  transport::HostStack stack{network.scheduler_host()};
  core::SchedulerService service{stack, core::RankerConfig{},
                                 core::NetworkMapConfig{}};
  core::NetworkMap flat;

  /// Delivers one probe to the service's collector and the same report
  /// to the oracle's flat map.
  void probe(core::NodeId src, core::NodeId s1, core::NodeId s2,
             sim::SimDuration hop_delay, std::int64_t max_q) {
    net::Packet p;
    p.src = src;
    p.dst = network.scheduler_host().id();
    p.geneve = net::GeneveOption{};
    p.geneve->type = net::kIntProbeOptionType;
    net::IntStackEntry first;
    first.device = s1;
    first.ingress_port = 0;
    first.egress_port = 1;
    first.device_max_queue_pkts = max_q;
    first.ingress_link_latency = hop_delay;
    p.int_stack.push_back(first);
    net::IntStackEntry second = first;
    second.device = s2;
    p.int_stack.push_back(second);
    ASSERT_TRUE(service.collector().handle_packet(p));

    telemetry::ProbeReport report;
    report.src = p.src;
    report.dst = p.dst;
    report.entries = p.int_stack;
    flat.ingest(report, stack.host().local_time());
  }
};

TEST(PathCacheProperty, NeverServesPreIngestRankings) {
  sim::Rng rng{99};
  LazyPublishFixture f;
  const core::NodeId origin{30};
  const std::vector<core::NodeId> servers{core::NodeId{31}, core::NodeId{32}};
  for (const core::NodeId s : servers) f.service.register_edge_server(s);

  for (int round = 0; round < 30; ++round) {
    // Mutate the map: fresh delays (EWMA moves) and queue registers on
    // the chains reaching the two candidate servers and the origin.
    const auto delay =
        sim::SimDuration::microseconds(rng.uniform_int(500, 20'000));
    f.probe(servers[0], core::NodeId{40}, core::NodeId{41}, delay,
            rng.uniform_int(0, 32));
    f.probe(servers[1], core::NodeId{42}, core::NodeId{41}, delay * 2,
            rng.uniform_int(0, 32));
    f.probe(origin, core::NodeId{43}, core::NodeId{41}, delay / 2,
            rng.uniform_int(0, 32));

    // The next rank_for must observe every report applied so far.
    const core::Ranker oracle{f.flat};
    for (const auto metric :
         {core::RankingMetric::kDelay, core::RankingMetric::kBandwidth}) {
      ASSERT_EQ(render_ranks(f.service.rank_for(origin, metric)),
                render_ranks(oracle.rank(origin, servers, metric,
                                         f.stack.host().local_time())))
          << "round=" << round;
    }
    EXPECT_EQ(f.service.view()->epoch(),
              core::Epoch{f.service.map().reports_ingested()});
  }
}

TEST(PathCacheProperty, CountersSeparateHitsFromRebuilds) {
  LazyPublishFixture f;
  const core::NodeId origin{30};
  f.service.register_edge_server(core::NodeId{31});
  const std::int64_t base = f.service.map().view_publishes();

  // Applying reports publishes nothing by itself.
  f.probe(core::NodeId{31}, core::NodeId{40}, core::NodeId{41},
          sim::SimDuration::milliseconds(1), 0);
  f.probe(origin, core::NodeId{43}, core::NodeId{41},
          sim::SimDuration::milliseconds(1), 0);
  EXPECT_EQ(f.service.map().view_publishes(), base);

  // First read publishes once; a read with nothing new reuses the view.
  (void)f.service.rank_for(origin, core::RankingMetric::kDelay);
  EXPECT_EQ(f.service.map().view_publishes(), base + 1);
  const auto first = f.service.view();
  (void)f.service.rank_for(origin, core::RankingMetric::kDelay);
  EXPECT_EQ(f.service.view().get(), first.get());
  EXPECT_EQ(f.service.map().view_publishes(), base + 1);

  // A new report makes the next read rebuild.
  f.probe(core::NodeId{31}, core::NodeId{40}, core::NodeId{41},
          sim::SimDuration::milliseconds(5), 0);
  (void)f.service.rank_for(origin, core::RankingMetric::kDelay);
  EXPECT_EQ(f.service.map().view_publishes(), base + 2);
  EXPECT_NE(f.service.view().get(), first.get());
}

}  // namespace
}  // namespace intsched
