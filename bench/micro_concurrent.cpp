// Multi-threaded QPS benchmark for the scheduler read path: N query
// threads ranking against ONE shared ShardedNetworkMap while a live
// ingest thread keeps publishing fresh telemetry — the contended shape the
// published-view design exists for. BM_RankQpsSnapshot runs a one-region
// map (the flat scheduler's deployment) with google-benchmark's
// --threads = {2, 3, 5, 9}, i.e. 1/2/4/8 query threads plus thread 0
// acting as the ingester. Reported metrics:
//   items_per_second — ranks/sec across all query threads (the QPS axis;
//                      only query threads call SetItemsProcessed)
//   rank_p50_ns / rank_p99_ns / rank_p999_ns
//                    — mean per-reader rank-latency percentiles from the
//                      shared log-linear histogram (benchtool::
//                      LatencyHistogram, ~12.5% resolution, bounded
//                      memory — the same helper qps_serve reports with)
// The BM_Snapshot* variants price the write side (apply + publish, one
// report at a time vs one publish per burst); BM_MetroRankQpsPlane
// prices the compiled-plane read path on a sharded metro under live
// ingest. Scaling numbers are meaningless on a 1-core box — compare on
// real hardware / CI runners.
//
// The shared map + tick counter are the benchmark's point, not an
// accident:
// intsched-lint: allow-file(thread-share): query threads must contend on
//   one ShardedNetworkMap to measure the read path under load

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"

namespace {

using namespace intsched;

sim::SimDuration ms(std::int64_t v) { return sim::SimDuration::milliseconds(v); }
sim::SimTime at_ms(std::int64_t v) { return sim::SimTime::at(ms(v)); }

constexpr core::NodeId kOrigin{0};
constexpr int kServers = 4;
/// Provisioned ids: the origin, servers 1..kServers, switches 11..10+kServers.
constexpr std::int32_t kNodes = 11 + kServers;

/// Probe origin -> switch (10+server) -> server, with a queue depth that
/// varies per ingest so every report really moves the EWMAs and windows.
telemetry::ProbeReport probe(core::NodeId server, std::int64_t queue) {
  telemetry::ProbeReport r;
  r.src = kOrigin;
  r.dst = server;
  net::IntStackEntry e;
  e.device = core::NodeId{10 + server.value()};
  e.ingress_port = 0;
  e.egress_port = 1;
  e.max_queue_pkts = queue;
  e.device_max_queue_pkts = queue;
  e.ingress_link_latency = sim::SimDuration::microseconds(200 + 10 * server.value());
  r.entries.push_back(e);
  r.final_link_latency = sim::SimDuration::microseconds(150);
  return r;
}

std::vector<core::NodeId> candidate_servers() {
  std::vector<core::NodeId> c;
  for (core::NodeId s = core::NodeId{1}; s.value() <= kServers; ++s) c.push_back(s);
  return c;
}

/// One shared map per benchmark variant, seeded with every candidate so
/// query threads rank a live topology from the first iteration. Leaked on
/// purpose (function-local static pointer): benchmark shared state must
/// outlive google-benchmark's worker threads in every exit path.
struct SharedState {
  core::ShardedNetworkMap map{core::RegionAssignment::single_region(kNodes)};
  std::atomic<std::int64_t> tick{0};

  SharedState() {
    std::vector<telemetry::ProbeReport> seed;
    for (core::NodeId s = core::NodeId{1}; s.value() <= kServers; ++s) seed.push_back(probe(s, 4));
    map.ingest_batch(seed, at_ms(tick.fetch_add(1, std::memory_order_relaxed)));
  }
};

using benchtool::LatencyHistogram;

/// Thread 0 ingests (one report per iteration, cycling servers); every
/// other thread ranks and times each call. ranks/sec comes out as
/// items_per_second because only query threads report items.
void run_rank_qps(benchmark::State& state, core::ShardedNetworkMap& map,
                  std::atomic<std::int64_t>& tick) {
  const std::vector<core::NodeId> candidates = candidate_servers();
  if (state.thread_index() == 0) {
    for (auto _ : state) {
      const std::int64_t t = tick.fetch_add(1, std::memory_order_relaxed);
      map.ingest(probe(core::NodeId{static_cast<std::int32_t>(1 + t % kServers)}, t % 23), at_ms(t));
    }
    return;
  }
  LatencyHistogram hist;
  for (auto _ : state) {
    // intsched-lint: allow(atomic-ordering): approximate "now" is fine here
    const std::int64_t now = tick.load(std::memory_order_relaxed);
    // intsched-lint: allow(wall-clock): measuring real rank latency
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(map.rank(kOrigin, candidates,
                                      core::RankingMetric::kDelay, at_ms(now)));
    // intsched-lint: allow(wall-clock): measuring real rank latency
    const auto end = std::chrono::steady_clock::now();
    hist.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
  }
  state.SetItemsProcessed(state.iterations());
  // Sum over readers of (pXX / readers) = mean per-reader percentile; the
  // ingester contributes nothing, so the default sum-merge is the mean.
  const int readers = state.threads() - 1;
  const double scale = 1.0 / (readers > 0 ? readers : 1);
  state.counters["rank_p50_ns"] = benchmark::Counter(hist.p50() * scale);
  state.counters["rank_p99_ns"] = benchmark::Counter(hist.p99() * scale);
  state.counters["rank_p999_ns"] = benchmark::Counter(hist.p999() * scale);
}

void BM_RankQpsSnapshot(benchmark::State& state) {
  static SharedState* shared = new SharedState;
  run_rank_qps(state, shared->map, shared->tick);
}
BENCHMARK(BM_RankQpsSnapshot)
    ->Threads(2)
    ->Threads(3)
    ->Threads(5)
    ->Threads(9)
    ->UseRealTime();

/// Cost of ONE ingest (map mutation + a region snapshot rebuild + view
/// publish) — the price rank() never pays.
void BM_SnapshotIngestPublish(benchmark::State& state) {
  static SharedState* shared = new SharedState;
  for (auto _ : state) {
    const std::int64_t t =
        shared->tick.fetch_add(1, std::memory_order_relaxed);
    shared->map.ingest(probe(core::NodeId{static_cast<std::int32_t>(1 + t % kServers)}, t % 23), at_ms(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotIngestPublish);

/// A 32-probe burst fed one report at a time: 32 publishes.
void BM_SnapshotBurst32Sequential(benchmark::State& state) {
  static SharedState* shared = new SharedState;
  for (auto _ : state) {
    const std::int64_t t =
        shared->tick.fetch_add(1, std::memory_order_relaxed);
    for (std::int64_t i = 0; i < 32; ++i) {
      shared->map.ingest(probe(core::NodeId{static_cast<std::int32_t>(1 + (t + i) % kServers)}, i % 23), at_ms(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SnapshotBurst32Sequential);

/// The same burst through ingest_batch: one publish. The gap between this
/// and Burst32Sequential is what ReportBatcher buys the collector path.
void BM_SnapshotBurst32Batched(benchmark::State& state) {
  static SharedState* shared = new SharedState;
  std::vector<telemetry::ProbeReport> burst;
  for (auto _ : state) {
    const std::int64_t t =
        shared->tick.fetch_add(1, std::memory_order_relaxed);
    burst.clear();
    for (std::int64_t i = 0; i < 32; ++i) {
      burst.push_back(probe(core::NodeId{static_cast<std::int32_t>(1 + (t + i) % kServers)}, i % 23));
    }
    shared->map.ingest_batch(burst, at_ms(t));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SnapshotBurst32Batched);

// -- rank_plane under live metro ingest -----------------------------------
//
// The compiled-plane read path under the contended shape it ships in:
// thread 0 keeps publishing 32-link refresh batches into a sharded metro
// map (each publish swaps the MetroView and invalidates the per-origin
// plane cache) while query threads rank the full edge-server set through
// rank_topk_into, so the plane gather + top-k kernel is measured
// end-to-end, including recompile amortisation after each swap.
struct MetroQpsState {
  net::GenTopology topo;
  std::unique_ptr<core::ShardedNetworkMap> map;
  std::vector<std::vector<telemetry::ProbeReport>> batches;
  std::vector<core::NodeId> servers;
  std::vector<core::NodeId> origins;
  std::atomic<std::int64_t> tick{1};

  MetroQpsState() {
    net::MetroConfig cfg;
    cfg.seed = 42;
    cfg.pods = 4;
    topo = net::TopologyGen::ring_of_pods(cfg);
    map = std::make_unique<core::ShardedNetworkMap>(
        core::RegionAssignment::from_topology(topo));
    exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = 42}};
    map->ingest_batch(gen.full_sweep(), at_ms(0));
    for (int i = 0; i < 64; ++i) batches.push_back(gen.refresh(32));
    servers = topo.edge_servers();
    origins = topo.hosts();
  }
};

void run_metro_rank_qps(benchmark::State& state, MetroQpsState& shared) {
  if (state.thread_index() == 0) {
    for (auto _ : state) {
      const std::int64_t t =
          shared.tick.fetch_add(1, std::memory_order_relaxed);
      shared.map->ingest_batch(
          shared.batches[static_cast<std::size_t>(t) %
                         shared.batches.size()],
          at_ms(t));
    }
    return;
  }
  core::MetroView::RankScratch scratch;
  std::vector<core::ServerRank> out;
  LatencyHistogram hist;
  std::size_t q = 0;
  for (auto _ : state) {
    // intsched-lint: allow(atomic-ordering): approximate "now" is fine here
    const std::int64_t now = shared.tick.load(std::memory_order_relaxed);
    const core::NodeId origin = shared.origins[q % shared.origins.size()];
    ++q;
    // intsched-lint: allow(wall-clock): measuring real rank latency
    const auto begin = std::chrono::steady_clock::now();
    const std::shared_ptr<const core::MetroView> view = shared.map->view();
    view->rank_topk_into(origin, shared.servers.data(),
                         shared.servers.size(), core::RankingMetric::kDelay,
                         at_ms(now), 8, scratch, out);
    benchmark::DoNotOptimize(out.data());
    // intsched-lint: allow(wall-clock): measuring real rank latency
    const auto end = std::chrono::steady_clock::now();
    hist.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
  }
  state.SetItemsProcessed(state.iterations());
  const int readers = state.threads() - 1;
  const double scale = 1.0 / (readers > 0 ? readers : 1);
  state.counters["rank_p50_ns"] = benchmark::Counter(hist.p50() * scale);
  state.counters["rank_p99_ns"] = benchmark::Counter(hist.p99() * scale);
  state.counters["rank_p999_ns"] = benchmark::Counter(hist.p999() * scale);
}

void BM_MetroRankQpsPlane(benchmark::State& state) {
  static MetroQpsState* shared = new MetroQpsState;
  run_metro_rank_qps(state, *shared);
}
BENCHMARK(BM_MetroRankQpsPlane)->Threads(2)->Threads(3)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
