// Order statistics for the benchmark's reports.
//
// Percentiles use the nearest-rank rule on the sorted sample: the q-th
// percentile is the smallest value with at least ceil(q·n) samples at or
// below it. A percentile is reported only when at least ten samples lie
// strictly beyond it, so a p99 needs 1000 samples and a p99.9 needs 10000.
// Failed operations enter a sample as +infinity: they miss every limit.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Percentiles the reports consider, in per-mille, highest first.
inline constexpr unsigned kPercentileLadder[] = {999, 990, 950, 900, 500};

/// Nearest-rank percentile of an ascending `sorted` sample; `per_mille` is
/// q·1000 (990 = p99). The sample must be non-empty.
double percentile_sorted(const std::vector<double>& sorted, unsigned per_mille);

/// Samples strictly beyond the nearest-rank percentile in a sample of n.
std::size_t samples_beyond(std::size_t n, unsigned per_mille);

/// The highest ladder percentile (per-mille) with at least kTailSamples
/// samples beyond it in a sample of n; 0 when even the median lacks them.
unsigned highest_supported_percentile(std::size_t n);

/// Median of an unsorted sample (nearest rank); 0 for an empty one.
double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// Latency summary of one phase. `failed` operations count as +infinity.
struct Summary {
  std::size_t ok = 0;
  std::size_t failed = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;         ///< meaningful only when p99_supported
  bool p99_supported = false;
  unsigned tail_per_mille = 0;  ///< highest supported percentile
  double tail = 0.0;            ///< value at tail_per_mille
};

Summary summarize(std::vector<double> ok_values, std::size_t failed);

}  // namespace perfbench
