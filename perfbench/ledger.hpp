// Per-layer measurements for the traced run.
//
// Two sources. The benchmark's own timed calls into each module's public
// functions (each also recorded as a "bench.*" span when tracing is on),
// and deltas of the counters and histograms the program already exports
// through obs::MetricsRegistry. The daemon, the primary and the follower all
// run in this process, so the registry holds every node's metrics; the
// stream.* and graph histograms therefore average the primary's and the
// follower's applies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/dataset.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace obs = forumcast::obs;

/// Times fn() in microseconds inside a span named `span_name`.
template <typename Fn>
double timed_us(const char* span_name, Fn&& fn) {
  obs::ScopedSpan span(span_name);
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A registry snapshot; the difference of two is what happened in between.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();

  std::uint64_t counter(const std::string& name) const;
  /// Bucket counts and sum of `name` (empty when never observed).
  obs::Histogram::Snapshot histogram(const std::string& name) const;

 private:
  obs::MetricsRegistry::Snapshot snapshot_;
};

std::uint64_t counter_delta(const RegistrySnapshot& before,
                            const RegistrySnapshot& after,
                            const std::string& name);
obs::Histogram::Snapshot histogram_delta(const RegistrySnapshot& before,
                                         const RegistrySnapshot& after,
                                         const std::string& name);
/// sum / count of a histogram (0 when empty).
double histogram_mean(const obs::Histogram::Snapshot& histogram);

/// In-process costs of the serving layers on the workload's own requests,
/// each the median over its calls. Must run while nothing mutates the
/// pipeline's dataset.
struct ServeLayerTimes {
  double score_us = 0.0;        ///< serve::BatchScorer::score per request
  double block_build_us = 0.0;  ///< FeatureCache::question_block on a miss
  double assemble_us = 0.0;     ///< FeatureCache::assemble, per 256 rows
  double answer_fwd_us = 0.0;   ///< predict_probability_batch, 256 rows
  double vote_fwd_us = 0.0;     ///< VotePredictor::predict_batch, 256 rows
  double timing_fwd_us = 0.0;   ///< predict_delay_batch, 256 rows
  double route_us = 0.0;        ///< opt::solve_routing on the candidates
};

ServeLayerTimes time_serve_layers(
    const forumcast::core::ForecastPipeline& pipeline,
    const std::vector<forumcast::net::Message>& requests);

/// Median health round trip over the wire, microseconds.
double time_ping_us(std::uint16_t port, int reps);

/// Median of append_frame + decode_frame for a request and its response.
double time_codec_us(const forumcast::net::Message& request,
                     const forumcast::net::Message& response, int reps);

/// Median ForecastPipeline::load of `pipeline`'s bundle against a copy of
/// `base`, milliseconds.
double time_bundle_load_ms(const forumcast::core::ForecastPipeline& pipeline,
                           const forumcast::forum::Dataset& base, int reps);

}  // namespace perfbench
