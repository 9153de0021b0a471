#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cli.hpp"
#include "serve_client.hpp"

namespace perfbench {

void run_serve_warm_metro(const Options& opts, Report& report);
void run_serve_small_mt(const Options& opts, Report& report);
void run_churn_metro(const Options& opts, Report& report);
void run_paper_fig5(const Options& opts, Report& report);

/// serve_warm_metro's traced run for `seconds`: the warm metro's serving
/// stages (decode, acquire, pick_with and its region pruning, encode).
void trace_warm_metro(const Options& opts, double seconds, Report& report);

/// Per-round results of a closed loop: the rate and the exact latency
/// percentiles of each round's stored samples.
struct Rounds {
  std::vector<double> rate_per_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;

  /// Folds one finished round (its samples are reordered).
  void close(std::vector<std::int64_t>& latency_ns, std::int64_t round_ns);
  /// Pools another run's rounds into this one.
  void append(const Rounds& other);

  /// The fast end of a run's rounds: the 2nd percentile of the round
  /// p50s and the 98th of the round rates. The host this runs on
  /// alternates between fast spells and spells up to ~1.8x slower, which
  /// last from a tenth of a second to minutes (README, "Fast and slow
  /// spells"), so a median round lands wherever the mix of spells puts
  /// it. Interference only ever slows a round, so the fast end repeats,
  /// and a slower program still moves it.
  [[nodiscard]] double fast_p50_us() const;
  [[nodiscard]] double fast_rate_per_s() const;
};

/// Runs `body(producer)` on `producers` threads in lockstep rounds —
/// every producer starts a round together and the round ends when the
/// last one finishes — until `seconds` of rounds have run (at least one).
/// `after_round(round_ns)` runs on the calling thread between rounds,
/// while no producer is running. One producer runs on the calling
/// thread itself.
void lockstep_rounds(int producers, double seconds,
                     const std::function<void(int)>& body,
                     const std::function<void(std::int64_t)>& after_round);

/// Producers for the multi-core phase: one per hardware thread but one.
[[nodiscard]] int mt_producers();

[[nodiscard]] double median_of(std::vector<std::int64_t> samples);
[[nodiscard]] double median_of(std::vector<double> samples);

/// Folds a client's tallies into the report as operations and checks.
void tally_into(Report& report, const Tally& tally, const char* what);

}  // namespace perfbench
