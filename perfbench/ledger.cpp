#include "ledger.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/recommender.hpp"
#include "ml/matrix.hpp"
#include "net/client.hpp"
#include "opt/routing_lp.hpp"
#include "serve/batch_scorer.hpp"
#include "serve/feature_cache.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = forumcast::core;
namespace forum = forumcast::forum;
namespace net = forumcast::net;
namespace serve = forumcast::serve;

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snapshot;
  snapshot.snapshot_ = obs::MetricsRegistry::global().snapshot();
  return snapshot;
}

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
  for (const auto& [key, value] : snapshot_.counters) {
    if (key == name) return value;
  }
  return 0;
}

obs::Histogram::Snapshot RegistrySnapshot::histogram(
    const std::string& name) const {
  for (const auto& [key, value] : snapshot_.histograms) {
    if (key == name) return value;
  }
  return {};
}

std::uint64_t counter_delta(const RegistrySnapshot& before,
                            const RegistrySnapshot& after,
                            const std::string& name) {
  return after.counter(name) - before.counter(name);
}

obs::Histogram::Snapshot histogram_delta(const RegistrySnapshot& before,
                                         const RegistrySnapshot& after,
                                         const std::string& name) {
  obs::Histogram::Snapshot delta = after.histogram(name);
  const obs::Histogram::Snapshot earlier = before.histogram(name);
  if (earlier.counts.size() == delta.counts.size()) {
    for (std::size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= earlier.counts[i];
    }
    delta.total_count -= earlier.total_count;
    delta.sum -= earlier.sum;
  }
  return delta;
}

double histogram_mean(const obs::Histogram::Snapshot& histogram) {
  return histogram.total_count == 0
             ? 0.0
             : histogram.sum / static_cast<double>(histogram.total_count);
}

ServeLayerTimes time_serve_layers(const core::ForecastPipeline& pipeline,
                                  const std::vector<net::Message>& requests) {
  ServeLayerTimes times;
  const forum::Dataset& dataset = pipeline.dataset();

  // Whole requests through a scorer with its own cold cache, in arrival
  // order, so hits and misses follow the workload's question mix.
  const serve::BatchScorer scorer(pipeline);
  std::vector<double> score_us;
  std::vector<double> route_us;
  const core::RecommenderConfig routing;
  for (const net::Message& request : requests) {
    std::vector<core::Prediction> predictions;
    score_us.push_back(timed_us("bench.serve.score", [&] {
      predictions = scorer.score(request.question, request.users);
    }));
    // The eq. (2) problem the recommender solves for these candidates.
    forumcast::opt::RoutingProblem problem;
    for (const core::Prediction& p : predictions) {
      if (p.answer_probability < routing.epsilon) continue;
      problem.weights.push_back(p.votes -
                                routing.quality_time_tradeoff * p.delay_hours);
      problem.capacities.push_back(routing.default_capacity);
    }
    if (problem.weights.empty()) continue;
    route_us.push_back(timed_us("bench.opt.solve_routing", [&] {
      const auto solution = forumcast::opt::solve_routing(problem);
      (void)solution;
    }));
  }
  times.score_us = median(score_us);
  times.route_us = median(route_us);

  // Question blocks built from scratch, one per distinct question.
  serve::FeatureCache cache(requests.size() + 1);
  cache.sync(pipeline.extractor(), dataset, pipeline.generation());
  std::vector<double> build_us;
  std::vector<forum::QuestionId> built;
  for (const net::Message& request : requests) {
    if (std::find(built.begin(), built.end(), request.question) !=
        built.end()) {
      continue;
    }
    built.push_back(request.question);
    build_us.push_back(timed_us("bench.serve.question_block", [&] {
      (void)cache.question_block(request.question);
    }));
    if (built.size() == 64) break;
  }
  times.block_build_us = median(build_us);

  // One 256-row block: assembly and each predictor's batched forward.
  constexpr std::size_t kRows = 256;
  std::vector<forum::UserId> users(std::min(kRows, dataset.num_users()));
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = static_cast<forum::UserId>(i);
  }
  cache.warm_users(users);
  const forum::QuestionId question = requests.front().question;
  const auto block = cache.question_block(question);
  forumcast::ml::Matrix rows(users.size(), cache.dimension());
  std::vector<double> out(users.size());
  const double open_duration = pipeline.question_open_duration(question);
  std::vector<double> assemble_us, answer_us, vote_us, timing_us;
  for (int rep = 0; rep < 40; ++rep) {
    assemble_us.push_back(timed_us("bench.serve.assemble", [&] {
      for (std::size_t r = 0; r < users.size(); ++r) {
        cache.assemble(users[r], *block, rows.row(r));
      }
    }));
    answer_us.push_back(timed_us("bench.core.answer_forward", [&] {
      pipeline.answer_predictor().predict_probability_batch(rows, out);
    }));
    vote_us.push_back(timed_us("bench.core.vote_forward", [&] {
      pipeline.vote_predictor().predict_batch(rows, out);
    }));
    timing_us.push_back(timed_us("bench.core.timing_forward", [&] {
      pipeline.timing_predictor().predict_delay_batch(rows, open_duration,
                                                      out);
    }));
  }
  times.assemble_us = median(assemble_us);
  times.answer_fwd_us = median(answer_us);
  times.vote_fwd_us = median(vote_us);
  times.timing_fwd_us = median(timing_us);
  return times;
}

double time_ping_us(std::uint16_t port, int reps) {
  net::Client client(port);
  for (int i = 0; i < 20; ++i) client.health();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    us.push_back(timed_us("bench.net.ping", [&] { client.health(); }));
  }
  return median(us);
}

double time_codec_us(const net::Message& request,
                     const net::Message& response, int reps) {
  std::vector<double> us;
  std::string frame;
  for (int i = 0; i < reps; ++i) {
    us.push_back(timed_us("bench.net.codec", [&] {
      for (const net::Message* message : {&request, &response}) {
        frame.clear();
        net::append_frame(frame, *message);
        const net::DecodeFrameResult decoded = net::decode_frame(frame);
        (void)decoded;
      }
    }));
  }
  return median(us);
}

double time_bundle_load_ms(const core::ForecastPipeline& pipeline,
                           const forum::Dataset& base, int reps) {
  std::ostringstream out;
  pipeline.save(out);
  const std::string bundle = std::move(out).str();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const forum::Dataset dataset = base;
    std::istringstream in(bundle);
    std::optional<core::ForecastPipeline> loaded;
    ms.push_back(timed_us("bench.setup.bundle_load", [&] {
                   loaded.emplace(core::ForecastPipeline::load(in, dataset));
                 }) /
                 1000.0);
  }
  return median(ms);
}

}  // namespace perfbench
