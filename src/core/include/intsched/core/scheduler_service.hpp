#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "intsched/core/network_map.hpp"
#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/net/topology.hpp"
#include "intsched/telemetry/collector.hpp"
#include "intsched/transport/host_stack.hpp"

namespace intsched::core {

/// Edge-device query: "give me candidate edge servers ranked by <metric>".
struct CandidateRequest : net::AppMessage {
  std::uint64_t query_id = 0;
  core::NodeId device = core::kInvalidNode;
  RankingMetric metric = RankingMetric::kDelay;
  net::PortNumber reply_port = 0;
  /// Capabilities the job's tasks require (heterogeneous-server
  /// extension); servers missing any are excluded from the response.
  std::vector<std::string> requirements;
};

/// Periodic edge-server load report (compute-aware extension, paper §VI):
/// how many tasks the server is running plus has queued.
struct LoadReportMessage : net::AppMessage {
  core::NodeId server = core::kInvalidNode;
  std::int32_t outstanding_tasks = 0;
};

/// Scheduler reply: ranked candidates with both estimates (paper Fig. 1,
/// steps 3-4).
struct CandidateResponse : net::AppMessage {
  std::uint64_t query_id = 0;
  std::vector<ServerRank> ranked;
};

/// Compute-aware scheduling knobs (disabled by default: the paper's core
/// design is purely network-aware; §VI sketches this extension).
struct SchedulerConfig {
  bool compute_aware = false;
  /// Added to a candidate's delay key per outstanding task; bandwidth
  /// ranking divides the estimate by (1 + outstanding) instead.
  sim::SimDuration load_penalty = sim::SimDuration::millis(500);
  /// Load reports older than this are treated as "idle".
  sim::SimDuration load_staleness = sim::SimDuration::secs(3);
};

/// The central scheduler process (paper Fig. 1): terminates INT probes into
/// a one-region ShardedNetworkMap, answers candidate queries from edge
/// devices over UDP, and ranks through the map's published MetroView —
/// the same route the serving frontend and the metro benches use.
class SchedulerService {
 public:
  /// `topology` is the provisioning input: its nodes (ids
  /// [0, node_count()), assigned sequentially) are the ids the map
  /// accepts; a probe report naming any other id is rejected at ingest.
  SchedulerService(transport::HostStack& stack, const net::Topology& topology,
                   RankerConfig ranker_config, NetworkMapConfig map_config,
                   SchedulerConfig scheduler_config = {});

  /// Declares a node as a candidate edge server with the capabilities it
  /// offers. The service never returns the querying device itself as a
  /// candidate, nor servers missing a requested capability.
  void register_edge_server(core::NodeId server,
                            std::vector<std::string> capabilities = {});
  [[nodiscard]] const std::vector<core::NodeId>& edge_servers() const {
    return servers_;
  }

  /// Current believed outstanding-task count for a server (0 when no
  /// fresh report exists).
  [[nodiscard]] std::int32_t server_load(core::NodeId server) const;

  [[nodiscard]] telemetry::IntCollector& collector() { return collector_; }

  /// The scheduler's map. Probe reports are applied to it without a
  /// publish; read rankings and link estimates through view().
  [[nodiscard]] const ShardedNetworkMap& map() const { return map_; }

  /// The map's view of every probe report received so far: publishes
  /// first when reports arrived since the last publish (a simulated
  /// scheduler receives tens of reports per query, so publishing per
  /// report would be wasted work). Region 0's snapshot holds the whole
  /// inferred network.
  [[nodiscard]] std::shared_ptr<const MetroView> view();

  [[nodiscard]] std::int64_t queries_served() const { return queries_; }

  // -- graceful-degradation counters (advance only when the map's
  //    link_staleness window is enabled) --

  /// Ranked candidates whose path telemetry was stale at query time.
  [[nodiscard]] std::int64_t stale_lookups() const { return stale_lookups_; }
  /// Queries where staleness changed the ordering policy (fresh-first
  /// partition, or full Nearest fallback when everything was stale).
  [[nodiscard]] std::int64_t fallback_decisions() const { return fallbacks_; }

  /// Synchronous ranking entry point (also used by the UDP handler) —
  /// exposed for tests and for co-located schedulers.
  [[nodiscard]] std::vector<ServerRank> rank_for(
      core::NodeId device, RankingMetric metric,
      const std::vector<std::string>& requirements = {});

 private:
  struct LoadInfo {
    std::int32_t outstanding = 0;
    sim::SimTime reported_at = sim::SimTime::zero();
  };

  void on_request(const net::Packet& p);
  void on_load_report(const LoadReportMessage& report);
  [[nodiscard]] bool satisfies(core::NodeId server,
                               const std::vector<std::string>& reqs) const;

  transport::HostStack& stack_;
  telemetry::IntCollector collector_;
  ShardedNetworkMap map_;
  SchedulerConfig cfg_;
  std::vector<core::NodeId> servers_;
  std::unordered_map<core::NodeId, std::vector<std::string>> capabilities_;
  std::unordered_map<core::NodeId, LoadInfo> load_;
  std::int64_t queries_ = 0;
  std::int64_t stale_lookups_ = 0;
  std::int64_t fallbacks_ = 0;
};

/// Device-side stub: sends CandidateRequests and dispatches responses to
/// per-query callbacks, with timeout-based retry (requests ride UDP and can
/// be lost under the very congestion being measured).
class SchedulerClient {
 public:
  using ResponseHandler = std::function<void(const CandidateResponse&)>;

  SchedulerClient(transport::HostStack& stack, core::NodeId scheduler);
  ~SchedulerClient();
  SchedulerClient(const SchedulerClient&) = delete;
  SchedulerClient& operator=(const SchedulerClient&) = delete;

  void query(RankingMetric metric, ResponseHandler handler,
             std::vector<std::string> requirements = {});

  [[nodiscard]] std::int64_t queries_sent() const { return sent_; }
  [[nodiscard]] std::int64_t responses_received() const { return received_; }
  [[nodiscard]] std::int64_t retries() const { return retries_; }

 private:
  struct Pending {
    ResponseHandler handler;
    RankingMetric metric;
    std::vector<std::string> requirements;
    std::int32_t attempts = 0;
    sim::EventId retry_timer{};
  };

  void send_request(std::uint64_t id);
  void on_response(const net::Packet& p);

  transport::HostStack& stack_;
  core::NodeId scheduler_;
  net::PortNumber reply_port_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::int64_t sent_ = 0;
  std::int64_t received_ = 0;
  std::int64_t retries_ = 0;

  static constexpr sim::SimDuration kRetryAfter = sim::SimDuration::secs(1);
};

}  // namespace intsched::core
