#pragma once

// Builds a served metro the way a deployment would bring one up:
// generated topology, one full telemetry sweep ingested into a
// ShardedNetworkMap (default configuration: serial region rebuilds), the
// edge servers registered with a ServeFrontend, and every origin's
// per-epoch query memo filled by one request — so no lazy state is left
// for a timed window to pay for.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "intsched/core/network_map.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/serve/frontend.hpp"
#include "reference.hpp"
#include "serve_client.hpp"

namespace perfbench {

enum class MetroSize : std::uint8_t {
  kSmall,  ///< 4 pods, 32 hosts, 8 edge servers
  kFull,   ///< 48 pods, 1056 switches, 768 hosts, 192 edge servers
};

/// Seed of a run's k-th deployment. Each run measures several metros
/// built from seeds derived from --seed, one after another, so its
/// figures average over generated topologies and memory placements.
[[nodiscard]] inline std::uint64_t deployment_seed(std::uint64_t seed,
                                                   std::uint64_t k) {
  return seed * 64 + k;
}

/// The sim time the sweep is ingested at and warm requests are served at.
[[nodiscard]] intsched::sim::SimTime sweep_time();

struct Metro {
  intsched::net::GenTopology topo;
  std::vector<NodeId> hosts;
  std::vector<NodeId> servers;  ///< ascending
  std::unique_ptr<intsched::exp::MetroTelemetryGen> telemetry;
  std::vector<intsched::telemetry::ProbeReport> sweep;
  std::unique_ptr<intsched::core::ShardedNetworkMap> map;
  std::unique_ptr<ServeFrontend> frontend;
};

/// What one set-up cost, measured from outside the program.
struct SetupCost {
  double total_s = 0.0;
  double ingest_ms = 0.0;  ///< the sweep's ingest_batch call
  std::int64_t region_builds = 0;
  std::int64_t reports = 0;
  /// Per origin: first request (fills the memo) minus a repeat (warm).
  std::vector<double> memo_fill_ms;
};

/// Request shapes that warm a metro: two consecutive requests per origin
/// (the first fills its memo, the repeat measures the warm cost).
using WarmStream = std::function<Stream(const Metro&)>;

/// Builds the metro for `seed` and warms it with `warm`. Warm answers
/// are checked like any other and tallied into `tally`.
[[nodiscard]] std::unique_ptr<Metro> build_metro(MetroSize size,
                                                 std::uint64_t seed,
                                                 const WarmStream& warm,
                                                 SetupCost& cost, Tally& tally);

/// Runs build_metro `reps` times (each instance destroyed before the
/// next is built) and returns the last one; `costs` gets every set-up.
[[nodiscard]] std::unique_ptr<Metro> build_metro_repeated(
    MetroSize size, std::uint64_t seed, int reps, const WarmStream& warm,
    std::vector<SetupCost>& costs, Tally& tally);

/// Warm shapes in the stream's own request shape: every host twice in a
/// row, in host order; `shaped` supplies the candidates of one origin.
[[nodiscard]] Stream twice_per_origin(const Stream& shaped,
                                      const std::vector<NodeId>& hosts);

/// Reference Algorithm 1 over the metro's topology with the program's
/// default k factor.
[[nodiscard]] ReferenceAlgorithm1 metro_reference(const Metro& m);

/// A plain NetworkMap with the sharded map's default configuration.
[[nodiscard]] std::unique_ptr<intsched::core::NetworkMap> plain_map();

}  // namespace perfbench
