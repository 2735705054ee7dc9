// End-to-end and per-stage training throughput.
//
// BM_PipelineFit/N fits the whole pipeline at --fit-threads=N;
// tools/run_bench.sh guards the /8 over /1 ratio via BENCH_FIT_MIN_SPEEDUP.
// Every stage trains on the same gemm-backed minibatch loop at any thread
// count, so the ratio measures thread scaling only: sharded LDA and
// column-sharded gradient accumulation. The timing stage dominates the fit
// and has no thread knob, so the ratio sits near 1 even on multi-core hosts.
//
// The 1-thread and N-thread fits produce bit-identical models for every
// stage except LDA (see fit_parallel_test.cpp), so items_per_second is the
// only axis.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/timing_predictor.hpp"
#include "forum/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace forumcast;

struct FitFixture {
  forum::Dataset dataset;
  std::vector<forum::QuestionId> history;

  static FitFixture& instance() {
    static FitFixture fixture;
    return fixture;
  }

 private:
  FitFixture() : dataset(make_dataset()) {
    history = dataset.questions_in_days(1, 25);
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 800;
    config.num_questions = 500;
    config.mean_extra_answers = 2.0;
    config.seed = 47;
    return forum::generate_forum(config).dataset.preprocessed();
  }
};

core::PipelineConfig pipeline_config(std::size_t fit_threads) {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 10;
  config.answer.logistic.epochs = 40;
  config.vote.epochs = 15;
  config.timing.epochs = 8;
  config.survival_samples_per_thread = 10;
  config.fit_threads = fit_threads;
  return config;
}

void BM_PipelineFit(benchmark::State& state) {
  auto& fixture = FitFixture::instance();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::ForecastPipeline pipeline(pipeline_config(threads));
    pipeline.fit(fixture.dataset, fixture.history);
    benchmark::DoNotOptimize(pipeline.generation());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.history.size()));
}
BENCHMARK(BM_PipelineFit)->Arg(1)->Arg(8)->Unit(benchmark::kSecond);

// Isolates the dominant stage (the point-process likelihood is ~95% of
// pipeline.fit wall-clock) on synthetic threads so regressions in the
// batched training path show up without the LDA/feature noise in front.
std::vector<core::TimingThread> synthetic_timing_threads(std::size_t n,
                                                         std::size_t dim) {
  std::vector<core::TimingThread> threads;
  util::Rng rng(101);
  for (std::size_t t = 0; t < n; ++t) {
    core::TimingThread thread;
    thread.open_duration = 24.0 + rng.uniform(0.0, 120.0);
    const std::size_t answers = 1 + rng.uniform_index(3);
    for (std::size_t a = 0; a < answers; ++a) {
      core::TimingThread::Answer answer;
      for (std::size_t c = 0; c < dim; ++c) {
        answer.features.push_back(rng.normal(0.0, 1.0));
      }
      answer.delay = rng.uniform(0.1, thread.open_duration);
      thread.answers.push_back(std::move(answer));
    }
    for (std::size_t s = 0; s < 10; ++s) {
      core::TimingThread::SurvivalSample sample;
      for (std::size_t c = 0; c < dim; ++c) {
        sample.features.push_back(rng.normal(0.0, 1.0));
      }
      sample.weight = 1.0 + rng.uniform(0.0, 20.0);
      thread.survival.push_back(std::move(sample));
    }
    threads.push_back(std::move(thread));
  }
  return threads;
}

void BM_TimingFit(benchmark::State& state) {
  static const auto threads_data = synthetic_timing_threads(250, 34);
  core::TimingPredictorConfig config;
  config.epochs = 10;
  for (auto _ : state) {
    core::TimingPredictor predictor(config);
    predictor.fit(threads_data);
    benchmark::DoNotOptimize(predictor.fitted());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(threads_data.size()));
}
BENCHMARK(BM_TimingFit)->Unit(benchmark::kSecond);

}  // namespace

BENCHMARK_MAIN();
