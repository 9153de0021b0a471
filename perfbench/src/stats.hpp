#pragma once

// Clocks, exact percentiles over stored samples, and process memory for
// the benchmark harness. Everything here is harness-side: the program
// under test never sees these.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t wall_ns();

/// Median cost of one wall_ns() call pair, measured on this machine; the
/// per-stage timings of the traced runs subtract it once per stage.
[[nodiscard]] std::int64_t timer_overhead_ns();

/// Exact q-quantile (0 <= q <= 1) of `samples` by the nearest-rank
/// rule. Reorders `samples`; returns 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double>& samples, double q);
[[nodiscard]] double quantile(std::vector<std::int64_t>& samples, double q);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
[[nodiscard]] double peak_rss_mb();

/// splitmix64: the harness's own seeded stream for request shapes.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

/// Deterministic stream of draws in [0, bound) derived from a seed and a
/// stream label, independent of the program's own RNG.
class Draws {
 public:
  Draws(std::uint64_t seed, std::uint64_t stream)
      : state_{splitmix64(seed ^ splitmix64(stream))} {}
  [[nodiscard]] std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return splitmix64(state_);
  }
  [[nodiscard]] std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
