#include "intsched/core/rank_snapshot.hpp"

namespace intsched::core {

RankSnapshot::RankSnapshot(const NetworkMap& map)
    : map_{map}, epoch_{map_.ingest_epoch()}, graph_{map_.delay_graph()} {
  // Fix the slot set now, while the snapshot is still thread-private:
  // readers may fill slots concurrently but never add or remove them.
  for (const core::NodeId n : graph_.nodes()) {
    sp_slots_[n];
  }
}

const net::ShortestPaths* RankSnapshot::paths_from(core::NodeId origin) const {
  const auto it = sp_slots_.find(origin);
  if (it == sp_slots_.end()) return nullptr;
  const SpSlot& slot = it->second;
  // intsched-contract: allow(hot-lock): once-per-origin memo fill (§10)
  std::call_once(slot.once, [this, origin, &slot] {
    // intsched-contract: allow(hot-coldcall): sanctioned once-only fill
    slot.sp = net::dijkstra(graph_, origin);
    memo_fills_.fetch_add(1, std::memory_order_relaxed);
  });
  return &slot.sp;
}

}  // namespace intsched::core
