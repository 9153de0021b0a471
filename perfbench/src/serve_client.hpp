#pragma once

// The benchmark's wire client: builds seeded request streams, drives
// ServeFrontend::serve through encode -> serve -> decode, times each
// round trip, and checks every response against properties the answer
// must have (status, order, uniqueness, count, registry membership).

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "intsched/core/types.hpp"
#include "intsched/serve/frontend.hpp"
#include "intsched/serve/wire.hpp"
#include "reference.hpp"

namespace perfbench {

using intsched::serve::RankRequest;
using intsched::serve::RankResponse;
using intsched::serve::ServeFrontend;

/// One request shape: an origin plus an explicit candidate list (empty =
/// the whole registry), asking for the best `max_results` servers.
struct Shape {
  NodeId origin = intsched::core::kInvalidNode;
  std::uint32_t cand_begin = 0;
  std::uint16_t cand_count = 0;
};

struct Stream {
  std::vector<Shape> shapes;
  std::vector<NodeId> candidates;  ///< flat storage for Shape ranges
  std::uint8_t max_results = 1;
};

/// `count` whole-registry requests from seeded uniform origins.
[[nodiscard]] Stream registry_stream(const std::vector<NodeId>& origins,
                                     std::size_t count, std::uint8_t k,
                                     std::uint64_t seed, std::uint64_t label);

/// `count` explicit-candidate requests: per request `registered` distinct
/// servers plus `unregistered` distinct non-server hosts, in seeded
/// shuffled order.
[[nodiscard]] Stream explicit_stream(const std::vector<NodeId>& origins,
                                     const std::vector<NodeId>& servers,
                                     std::size_t count, std::size_t registered,
                                     std::size_t unregistered, std::uint8_t k,
                                     std::uint64_t seed, std::uint64_t label);

/// Tallies of one client's requests.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< serve() refused or answered non-ok
  std::int64_t wrong = 0;   ///< an ok answer broke a required property
};

/// A served answer kept for the reference check.
struct Served {
  NodeId origin = intsched::core::kInvalidNode;
  std::uint32_t shape = 0;  ///< index into the stream
  std::vector<RefRank> entries;
};

class Client {
 public:
  Client(const ServeFrontend& frontend, const Stream& stream,
         std::size_t first_shape);

  /// Runs `n` requests (the stream is cyclic), appending each round-trip
  /// time in ns to `latency` and keeping every `keep_every`-th answer in
  /// `kept` (0 = none). `expected_epoch` < 0 accepts any epoch.
  void run(std::size_t n, intsched::sim::SimTime now,
           std::int64_t expected_epoch, std::vector<std::int64_t>& latency,
           Tally& tally, std::size_t keep_every = 0,
           std::vector<Served>* kept = nullptr);

  /// The traced flavour: the same requests, but the client encode, the
  /// serve() call and the client decode are timed apart (timer overhead
  /// subtracted).
  void run_split(std::size_t n, intsched::sim::SimTime now,
                 std::int64_t timer_ns, std::vector<std::int64_t>& encode_ns,
                 std::vector<std::int64_t>& serve_ns,
                 std::vector<std::int64_t>& decode_ns, Tally& tally);

  /// Encodes the next request into the internal buffer and returns its
  /// length (for stage-by-stage replays); advances the stream.
  std::size_t encode_next();
  [[nodiscard]] const std::byte* request_bytes() const { return req_buf_.data(); }

  /// Checks a decoded response for the last encoded request.
  [[nodiscard]] bool response_ok(const RankResponse& resp,
                                 std::int64_t expected_epoch) const;

  [[nodiscard]] intsched::serve::ServeContext& context() { return ctx_; }

 private:
  const ServeFrontend* frontend_;
  const Stream* stream_;
  std::size_t next_;
  const Shape* last_ = nullptr;
  std::uint64_t query_id_ = 0;
  intsched::serve::ServeContext ctx_;
  RankRequest req_;
  RankResponse resp_;
  std::array<std::byte, intsched::serve::kMaxFrameSize> req_buf_{};
  std::array<std::byte, intsched::serve::kMaxFrameSize> resp_buf_{};
};

}  // namespace perfbench
