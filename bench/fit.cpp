// End-to-end and per-stage training throughput.
//
// BM_PipelineFit/N fits the whole pipeline at --fit-threads=N. Its
// independent stages (the extractor's topic and graph branches, then the
// answer, vote and timing predictors) overlap at every N, so even /1 can use
// several cores, and the /8 over /1 ratio says little about thread scaling.
//
// BM_LdaFit/N trains only the topic model, on the fixture's corpus, with N
// AD-LDA Gibbs shards. That stage really scales with threads, so
// tools/run_bench.sh runs five repetitions and guards the ratio of the
// median wall times, /1 over /4, via BENCH_FIT_MIN_SPEEDUP: each Gibbs
// sweep ends at a shard barrier, so one slice of host noise can stall a
// single run.
//
// Both read by real_time (wall clock) and report no items_per_second: that
// rate divides by the calling thread's CPU time, and the calling thread
// mostly waits on the workers. The 1-thread and N-thread fits produce
// bit-identical models for every stage except LDA (see
// fit_parallel_test.cpp), so time is the only axis.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/timing_predictor.hpp"
#include "forum/generator.hpp"
#include "text/post_text.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "topics/lda.hpp"
#include "util/rng.hpp"

namespace {

using namespace forumcast;

struct FitFixture {
  forum::Dataset dataset;
  std::vector<forum::QuestionId> history;
  // The history window's posts, tokenized and encoded as the extractor does.
  std::vector<std::vector<text::TokenId>> corpus;
  std::size_t vocab_size = 0;

  static FitFixture& instance() {
    static FitFixture fixture;
    return fixture;
  }

 private:
  FitFixture() : dataset(make_dataset()) {
    history = dataset.questions_in_days(1, 25);
    const text::Tokenizer tokenizer;
    text::Vocabulary vocabulary;
    auto encode = [&](const std::string& html) {
      corpus.push_back(vocabulary.encode(
          tokenizer.tokenize(text::split_post_body(html).words)));
    };
    for (forum::QuestionId q : history) {
      const forum::Thread& thread = dataset.thread(q);
      encode(thread.question.body_html);
      for (const forum::Post& answer : thread.answers) encode(answer.body_html);
    }
    vocab_size = vocabulary.size();
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
}
BENCHMARK(BM_PipelineFit)->Arg(1)->Arg(8)->Unit(benchmark::kSecond);

void BM_LdaFit(benchmark::State& state) {
  auto& fixture = FitFixture::instance();
  const features::ExtractorConfig extractor = pipeline_config(1).extractor;
  topics::LdaConfig config = extractor.lda;
  config.num_topics = extractor.num_topics;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    topics::Lda lda(config);
    lda.fit(fixture.corpus, fixture.vocab_size);
    benchmark::DoNotOptimize(lda.fitted());
  }
}
BENCHMARK(BM_LdaFit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Isolates the timing stage, the longest predictor branch of the fit, on
// synthetic threads so regressions in the batched training path show up
// without the LDA/feature noise in front.
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
