// Hand-worked check of the reference Algorithm 1 used by the benchmark's
// correctness checks. Exit code 0 = every expectation held.
//
// Topology (link delays in ms; queue = max-queue reading, k = 1 ms):
//
//   O (0) --1-- s1 (1) --1-- s2 (2) --1-- X (4)       q(s2) = 3
//                  |
//                  +----2--- s3 (3) --2-- Y (5)       q(s3) = 0
//                               |
//                               +-----2-- Z (6)
//
//   X: O-s1-s2-X  links 1+1+1 = 3, queues k*(q(s1)+q(s2)) = 0+3 -> key 6
//   Y: O-s1-s3-Y  links 1+2+2 = 5, queues 0                    -> key 5
//   Z: O-s1-s3-Z  links 1+2+2 = 5, queues 0                    -> key 5
//
// Y and Z tie on key 5; the ascending server id puts Y (5) first. X is
// the nearest server by link delay alone but ranks last: the congested
// s2 costs it 3 ms. The origin itself ranks after every reachable server.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "reference.hpp"

namespace {

using perfbench::NodeId;
using perfbench::RefRank;
using perfbench::SimDuration;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

NodeId n(std::int32_t v) { return NodeId{v}; }
SimDuration ms(std::int64_t v) { return SimDuration::millis(v); }

}  // namespace

int main() {
  const std::vector<std::pair<NodeId, NodeId>> links = {
      {n(0), n(1)}, {n(1), n(2)}, {n(1), n(3)},
      {n(2), n(4)}, {n(3), n(5)}, {n(3), n(6)}};
  const std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t>
      delay_ms = {{{0, 1}, 1}, {{1, 2}, 1}, {{1, 3}, 2},
                  {{2, 4}, 1}, {{3, 5}, 2}, {{3, 6}, 2}};
  const std::map<std::int32_t, std::int64_t> queue = {{2, 3}};

  perfbench::Estimator est;
  est.link_delay = [&](NodeId a, NodeId b) {
    const std::int32_t lo = std::min(a.value(), b.value());
    const std::int32_t hi = std::max(a.value(), b.value());
    return ms(delay_ms.at({lo, hi}));
  };
  est.max_queue = [&](NodeId d) {
    const auto it = queue.find(d.value());
    return it == queue.end() ? std::int64_t{0} : it->second;
  };

  const perfbench::ReferenceAlgorithm1 ref{7, links, ms(1)};
  const std::vector<RefRank> ranked =
      ref.rank(est, n(0), {n(4), n(6), n(5), n(0)});

  expect(ranked.size() == 4, "four candidates ranked");
  expect(ranked[0].server == n(5) && ranked[0].key == ms(5),
         "Y wins with key 5 ms (tie with Z broken by server id)");
  expect(ranked[1].server == n(6) && ranked[1].key == ms(5),
         "Z second with key 5 ms");
  expect(ranked[2].server == n(4) && ranked[2].key == ms(6),
         "X third: 3 ms of links plus 3 ms of queue at s2");
  expect(ranked[3].server == n(0) && ranked[3].key == SimDuration::max(),
         "the origin itself ranks last, unreachable");

  // The benchmark's check must accept the right answer and catch wrong
  // ones: the second-best server, and the right server with a wrong key.
  expect(perfbench::matches_reference(ranked, {{n(5), ms(5)}}),
         "best answer accepted");
  expect(!perfbench::matches_reference(ranked, {{n(6), ms(5)}}),
         "second-best server (equal key, larger id) caught");
  expect(!perfbench::matches_reference(ranked, {{n(4), ms(6)}}),
         "nearest-by-links server caught");
  expect(!perfbench::matches_reference(ranked, {{n(5), ms(3)}}),
         "right server with a key missing the queue term caught");
  expect(perfbench::matches_reference(ranked,
                                      {{n(5), ms(5)}, {n(6), ms(5)}}),
         "top-2 accepted");
  expect(!perfbench::matches_reference(ranked,
                                       {{n(5), ms(5)}, {n(4), ms(6)}}),
         "top-2 with a skipped entry caught");

  // Congestion moves the answer: with s3 as congested as s2 (q = 3), Y and
  // Z cost 8 ms and X (6 ms) wins.
  perfbench::Estimator hot = est;
  hot.max_queue = [](NodeId d) {
    return d == NodeId{2} || d == NodeId{3} ? std::int64_t{3} : 0;
  };
  const std::vector<RefRank> hot_ranked = ref.rank(hot, n(0), {n(5), n(4)});
  expect(hot_ranked[0].server == n(4) && hot_ranked[0].key == ms(6),
         "congested s3 hands the win to X");
  expect(hot_ranked[1].server == n(5) && hot_ranked[1].key == ms(8),
         "Y costs 5 ms of links plus 3 ms of queue");

  if (failures != 0) {
    std::cerr << failures << " reference expectation(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "reference Algorithm 1: all hand-worked expectations hold\n";
  return EXIT_SUCCESS;
}
