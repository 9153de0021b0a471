#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t timer_overhead_ns() {
  std::vector<std::int64_t> gaps(20001);
  for (std::int64_t& g : gaps) {
    const std::int64_t a = wall_ns();
    const std::int64_t b = wall_ns();
    g = b - a;
  }
  return static_cast<std::int64_t>(quantile(gaps, 0.5));
}

namespace {

template <typename T>
double nearest_rank(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

}  // namespace

double quantile(std::vector<double>& samples, double q) {
  return nearest_rank(samples, q);
}

double quantile(std::vector<std::int64_t>& samples, double q) {
  return nearest_rank(samples, q);
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
