// Round-based measurement loops shared by the workloads.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

void Rounds::close(std::vector<std::int64_t>& latency_ns,
                   std::int64_t round_ns) {
  rate_per_s.push_back(static_cast<double>(latency_ns.size()) * 1e9 /
                       static_cast<double>(round_ns));
  p50_us.push_back(quantile(latency_ns, 0.50) / 1e3);
  p99_us.push_back(quantile(latency_ns, 0.99) / 1e3);
}

void Rounds::append(const Rounds& other) {
  rate_per_s.insert(rate_per_s.end(), other.rate_per_s.begin(),
                    other.rate_per_s.end());
  p50_us.insert(p50_us.end(), other.p50_us.begin(), other.p50_us.end());
  p99_us.insert(p99_us.end(), other.p99_us.begin(), other.p99_us.end());
}

double Rounds::fast_p50_us() const {
  std::vector<double> v = p50_us;
  return quantile(v, 0.02);
}

double Rounds::fast_rate_per_s() const {
  std::vector<double> v = rate_per_s;
  return quantile(v, 0.98);
}

void lockstep_rounds(int producers, double seconds,
                     const std::function<void(int)>& body,
                     const std::function<void(std::int64_t)>& after_round) {
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t spent = 0;
  if (producers == 1) {
    do {
      const std::int64_t t0 = wall_ns();
      body(0);
      const std::int64_t dt = wall_ns() - t0;
      spent += dt;
      after_round(dt);
    } while (spent < budget);
    return;
  }
  // Producers and this thread meet at the barrier twice per round: once
  // to start it together, once when the last producer has finished.
  std::barrier sync{producers + 1};
  std::atomic<bool> stop{false};
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) return;
        body(p);
        sync.arrive_and_wait();
      }
    });
  }
  do {
    // The round starts before the producers are released: a producer may
    // finish its round before this thread wakes from the barrier.
    const std::int64_t t0 = wall_ns();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const std::int64_t dt = wall_ns() - t0;
    spent += dt;
    after_round(dt);
  } while (spent < budget);
  stop.store(true, std::memory_order_release);
  sync.arrive_and_wait();
  threads.clear();  // joins every producer
}

int mt_producers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw) - 1);
}

double median_of(std::vector<std::int64_t> samples) {
  return quantile(samples, 0.5);
}

double median_of(std::vector<double> samples) {
  return quantile(samples, 0.5);
}

void tally_into(Report& report, const Tally& tally, const char* what) {
  report.add(tally.attempted, tally.failed, tally.wrong, what);
}

}  // namespace perfbench
