#include "stats.hpp"

#include <algorithm>
#include <limits>

namespace perfbench {

namespace {

// ceil(per_mille · n / 1000) in integers, so p99 of 1000 is rank 990 exactly.
std::size_t nearest_rank(std::size_t n, unsigned per_mille) {
  return (static_cast<std::size_t>(per_mille) * n + 999) / 1000;
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted,
                         unsigned per_mille) {
  const std::size_t rank = std::max<std::size_t>(1, nearest_rank(sorted.size(), per_mille));
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, unsigned per_mille) {
  return n - nearest_rank(n, per_mille);
}

unsigned highest_supported_percentile(std::size_t n) {
  for (const unsigned per_mille : kPercentileLadder) {
    if (samples_beyond(n, per_mille) >= kTailSamples) return per_mille;
  }
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 500);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Summary summarize(std::vector<double> values, std::size_t failed) {
  Summary summary;
  summary.ok = values.size();
  summary.failed = failed;
  values.insert(values.end(), failed, std::numeric_limits<double>::infinity());
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = percentile_sorted(values, 500);
  summary.p90 = percentile_sorted(values, 900);
  summary.p99 = percentile_sorted(values, 990);
  summary.p99_supported = samples_beyond(values.size(), 990) >= kTailSamples;
  summary.tail_per_mille = highest_supported_percentile(values.size());
  if (summary.tail_per_mille != 0) {
    summary.tail = percentile_sorted(values, summary.tail_per_mille);
  }
  return summary;
}

}  // namespace perfbench
