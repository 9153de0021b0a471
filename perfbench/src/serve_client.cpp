#include "serve_client.hpp"

#include <algorithm>

#include "stats.hpp"

namespace perfbench {

namespace serve = intsched::serve;

Stream registry_stream(const std::vector<NodeId>& origins, std::size_t count,
                       std::uint8_t k, std::uint64_t seed,
                       std::uint64_t label) {
  Stream s;
  s.max_results = k;
  Draws draws{seed, label};
  s.shapes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    s.shapes.push_back(Shape{origins[draws.below(origins.size())], 0, 0});
  }
  return s;
}

Stream explicit_stream(const std::vector<NodeId>& origins,
                       const std::vector<NodeId>& servers, std::size_t count,
                       std::size_t registered, std::size_t unregistered,
                       std::uint8_t k, std::uint64_t seed,
                       std::uint64_t label) {
  std::vector<NodeId> others;
  for (const NodeId h : origins) {
    if (!std::binary_search(servers.begin(), servers.end(), h)) {
      others.push_back(h);
    }
  }
  Stream s;
  s.max_results = k;
  Draws draws{seed, label};
  std::vector<NodeId> pick;
  for (std::size_t i = 0; i < count; ++i) {
    pick.clear();
    // Partial Fisher-Yates draws of distinct servers and distinct
    // unregistered hosts, then one shuffle of the combined list.
    std::vector<NodeId> pool = servers;
    for (std::size_t j = 0; j < registered; ++j) {
      std::swap(pool[j], pool[j + draws.below(pool.size() - j)]);
      pick.push_back(pool[j]);
    }
    pool = others;
    for (std::size_t j = 0; j < unregistered; ++j) {
      std::swap(pool[j], pool[j + draws.below(pool.size() - j)]);
      pick.push_back(pool[j]);
    }
    for (std::size_t j = pick.size(); j > 1; --j) {
      std::swap(pick[j - 1], pick[draws.below(j)]);
    }
    Shape shape;
    shape.origin = origins[draws.below(origins.size())];
    shape.cand_begin = static_cast<std::uint32_t>(s.candidates.size());
    shape.cand_count = static_cast<std::uint16_t>(pick.size());
    s.candidates.insert(s.candidates.end(), pick.begin(), pick.end());
    s.shapes.push_back(shape);
  }
  return s;
}

Client::Client(const ServeFrontend& frontend, const Stream& stream,
               std::size_t first_shape)
    : frontend_{&frontend},
      stream_{&stream},
      next_{first_shape % stream.shapes.size()} {
  req_.metric = intsched::core::RankingMetric::kDelay;
  req_.max_results = stream.max_results;
}

std::size_t Client::encode_next() {
  const Shape& shape = stream_->shapes[next_];
  last_ = &shape;
  if (++next_ == stream_->shapes.size()) next_ = 0;
  req_.query_id = ++query_id_;
  req_.origin = shape.origin;
  req_.candidate_count = shape.cand_count;
  std::copy_n(stream_->candidates.data() + shape.cand_begin, shape.cand_count,
              req_.candidates.data());
  return serve::encode_rank_request(req_, req_buf_.data(), req_buf_.size());
}

bool Client::response_ok(const RankResponse& resp,
                         std::int64_t expected_epoch) const {
  if (resp.status != serve::ServeStatus::kOk ||
      resp.query_id != query_id_) {
    return false;
  }
  if (expected_epoch >= 0 && resp.epoch.value() != expected_epoch) {
    return false;
  }
  const Shape& shape = *last_;
  const NodeId* cands = stream_->candidates.data() + shape.cand_begin;
  std::size_t usable = frontend_->registered().size();
  if (shape.cand_count != 0) {
    usable = 0;
    for (std::size_t i = 0; i < shape.cand_count; ++i) {
      if (frontend_->is_registered(cands[i])) ++usable;
    }
  }
  if (resp.entry_count != std::min<std::size_t>(req_.max_results, usable)) {
    return false;
  }
  for (std::size_t i = 0; i < resp.entry_count; ++i) {
    const auto& e = resp.entries[i];
    if (!frontend_->is_registered(e.server)) return false;
    if (shape.cand_count != 0 &&
        std::find(cands, cands + shape.cand_count, e.server) ==
            cands + shape.cand_count) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (resp.entries[j].server == e.server) return false;
    }
    if (i > 0) {
      const auto& prev = resp.entries[i - 1];
      if (prev.delay_estimate > e.delay_estimate ||
          (prev.delay_estimate == e.delay_estimate &&
           prev.server > e.server)) {
        return false;
      }
    }
  }
  return true;
}

void Client::run(std::size_t n, intsched::sim::SimTime now,
                 std::int64_t expected_epoch,
                 std::vector<std::int64_t>& latency, Tally& tally,
                 std::size_t keep_every, std::vector<Served>* kept) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = wall_ns();
    const std::size_t req_len = encode_next();
    std::size_t resp_len = 0;
    const bool served =
        req_len != 0 &&
        frontend_->serve(ctx_, req_buf_.data(), req_len, resp_buf_.data(),
                         resp_buf_.size(), resp_len, now) &&
        serve::decode_rank_response(resp_buf_.data(), resp_len, resp_) ==
            serve::WireError::kOk;
    const std::int64_t t1 = wall_ns();
    latency.push_back(t1 - t0);
    ++tally.attempted;
    if (!served || resp_.status != serve::ServeStatus::kOk) {
      ++tally.failed;
      continue;
    }
    if (!response_ok(resp_, expected_epoch)) ++tally.wrong;
    if (kept != nullptr && keep_every != 0 && i % keep_every == 0) {
      Served s;
      s.origin = last_->origin;
      s.shape = static_cast<std::uint32_t>(last_ - stream_->shapes.data());
      for (std::size_t j = 0; j < resp_.entry_count; ++j) {
        s.entries.push_back(
            RefRank{resp_.entries[j].server, resp_.entries[j].delay_estimate});
      }
      kept->push_back(std::move(s));
    }
  }
}

void Client::run_split(std::size_t n, intsched::sim::SimTime now,
                       std::int64_t timer_ns,
                       std::vector<std::int64_t>& encode_ns,
                       std::vector<std::int64_t>& serve_ns,
                       std::vector<std::int64_t>& decode_ns, Tally& tally) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = wall_ns();
    const std::size_t req_len = encode_next();
    const std::int64_t t1 = wall_ns();
    std::size_t resp_len = 0;
    const bool served =
        req_len != 0 &&
        frontend_->serve(ctx_, req_buf_.data(), req_len, resp_buf_.data(),
                         resp_buf_.size(), resp_len, now);
    const std::int64_t t2 = wall_ns();
    const bool decoded =
        served && serve::decode_rank_response(resp_buf_.data(), resp_len,
                                              resp_) == serve::WireError::kOk;
    const std::int64_t t3 = wall_ns();
    encode_ns.push_back(t1 - t0 - timer_ns);
    serve_ns.push_back(t2 - t1 - timer_ns);
    decode_ns.push_back(t3 - t2 - timer_ns);
    ++tally.attempted;
    if (!decoded || resp_.status != serve::ServeStatus::kOk) {
      ++tally.failed;
    } else if (!response_ok(resp_, -1)) {
      ++tally.wrong;
    }
  }
}

}  // namespace perfbench
