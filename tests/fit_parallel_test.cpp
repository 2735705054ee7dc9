// Determinism contracts of the parallel training paths.
//
// Three tiers of guarantee, from strongest to weakest:
//  * gradient accumulation (logistic, Poisson): bit-equal at EVERY thread
//    count — parallelism never changes a fitted parameter;
//  * sharded Gibbs LDA: deterministic for a FIXED thread count, with
//    threads=1 bit-equal to the serial sampler; different thread counts give
//    different (AD-LDA) chains that must agree statistically;
//  * all of the above reproduce exactly across repeated runs, including
//    the whole pipeline, whose independent stages train concurrently.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/matrix.hpp"
#include "ml/poisson_regression.hpp"
#include "topics/lda.hpp"
#include "util/rng.hpp"

namespace forumcast {
namespace {

// ---------- sharded Gibbs LDA ----------

// Documents drawn from disjoint vocabulary bands: trivially separable topics.
std::vector<std::vector<text::TokenId>> banded_corpus(std::size_t num_topics,
                                                      std::size_t docs_per_topic,
                                                      std::size_t words_per_doc,
                                                      std::size_t band,
                                                      std::uint64_t seed) {
  std::vector<std::vector<text::TokenId>> documents;
  util::Rng rng(seed);
  for (std::size_t k = 0; k < num_topics; ++k) {
    for (std::size_t d = 0; d < docs_per_topic; ++d) {
      std::vector<text::TokenId> doc;
      for (std::size_t w = 0; w < words_per_doc; ++w) {
        doc.push_back(
            static_cast<text::TokenId>(k * band + rng.uniform_index(band)));
      }
      documents.push_back(std::move(doc));
    }
  }
  return documents;
}

topics::Lda fit_lda(std::size_t threads,
                    std::span<const std::vector<text::TokenId>> docs,
                    std::size_t vocab) {
  topics::Lda lda(
      {.num_topics = 3, .iterations = 40, .seed = 12, .threads = threads});
  lda.fit(docs, vocab);
  return lda;
}

TEST(FitParallelLda, FixedThreadCountReproducesCountTablesExactly) {
  const auto docs = banded_corpus(3, 25, 30, 20, 41);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto a = fit_lda(threads, docs, 60);
    const auto b = fit_lda(threads, docs, 60);
    const auto ca = a.topic_word_counts();
    const auto cb = b.topic_word_counts();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i], cb[i]) << "threads " << threads << " cell " << i;
    }
    for (std::size_t d = 0; d < docs.size(); ++d) {
      EXPECT_EQ(a.document_topics(d), b.document_topics(d))
          << "threads " << threads << " doc " << d;
    }
  }
}

TEST(FitParallelLda, ShardReductionConservesTokenCounts) {
  const auto docs = banded_corpus(3, 25, 30, 20, 43);
  std::size_t total_tokens = 0;
  for (const auto& doc : docs) total_tokens += doc.size();
  for (std::size_t threads : {2u, 3u, 8u}) {
    const auto lda = fit_lda(threads, docs, 60);
    std::size_t folded = 0;
    for (std::size_t c : lda.topic_word_counts()) folded += c;
    EXPECT_EQ(folded, total_tokens) << "threads " << threads;
  }
}

TEST(FitParallelLda, ParallelLikelihoodWithinToleranceOfSerial) {
  const auto docs = banded_corpus(3, 40, 40, 20, 47);
  const auto serial = fit_lda(1, docs, 60);
  const double serial_ll = serial.corpus_log_likelihood();
  ASSERT_LT(serial_ll, 0.0);
  for (std::size_t threads : {2u, 4u}) {
    const auto parallel = fit_lda(threads, docs, 60);
    const double parallel_ll = parallel.corpus_log_likelihood();
    // AD-LDA runs a different (deterministic) chain, but on a separable
    // corpus it must mix to an equally good mode: per-token log-likelihoods
    // within 5% of the serial sampler's.
    EXPECT_NEAR(parallel_ll, serial_ll, 0.05 * std::abs(serial_ll))
        << "threads " << threads;
  }
}

TEST(FitParallelLda, ThreadsZeroResolvesToDefaultAndFits) {
  const auto docs = banded_corpus(2, 10, 20, 20, 53);
  const auto lda = fit_lda(0, docs, 40);
  EXPECT_TRUE(lda.fitted());
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const auto theta = lda.document_topics(d);
    double sum = 0.0;
    for (double v : theta) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// ---------- linear-model gradient accumulation ----------

struct LinearData {
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;      // logistic
  std::vector<double> counts;   // poisson
};

LinearData make_linear_data(std::size_t n, std::size_t dim, std::uint64_t seed) {
  LinearData data;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(dim);
    double score = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      row[c] = rng.normal(0.0, 1.0);
      score += (c % 2 == 0 ? 1.0 : -0.5) * row[c];
    }
    data.labels.push_back(score > 0.0 ? 1 : 0);
    data.counts.push_back(std::floor(std::exp(0.3 * score)));
    data.rows.push_back(std::move(row));
  }
  return data;
}

TEST(FitParallelGradients, LogisticBitEqualAtEveryThreadCount) {
  const auto data = make_linear_data(300, 13, 61);
  ml::LogisticRegression serial({.epochs = 15, .seed = 3, .threads = 1});
  serial.fit(data.rows, data.labels);
  for (std::size_t threads : {0u, 2u, 3u, 8u}) {
    ml::LogisticRegression parallel(
        {.epochs = 15, .seed = 3, .threads = threads});
    parallel.fit(data.rows, data.labels);
    ASSERT_EQ(parallel.weights().size(), serial.weights().size());
    for (std::size_t c = 0; c < serial.weights().size(); ++c) {
      EXPECT_EQ(parallel.weights()[c], serial.weights()[c])
          << "threads " << threads << " weight " << c;
    }
    EXPECT_EQ(parallel.bias(), serial.bias()) << "threads " << threads;
  }
}

TEST(FitParallelGradients, PoissonBitEqualAtEveryThreadCount) {
  const auto data = make_linear_data(300, 13, 67);
  ml::PoissonRegression serial({.epochs = 15, .seed = 5, .threads = 1});
  serial.fit(data.rows, data.counts);
  for (std::size_t threads : {0u, 2u, 3u, 8u}) {
    ml::PoissonRegression parallel(
        {.epochs = 15, .seed = 5, .threads = threads});
    parallel.fit(data.rows, data.counts);
    ASSERT_EQ(parallel.weights().size(), serial.weights().size());
    for (std::size_t c = 0; c < serial.weights().size(); ++c) {
      EXPECT_EQ(parallel.weights()[c], serial.weights()[c])
          << "threads " << threads << " weight " << c;
    }
    EXPECT_EQ(parallel.bias(), serial.bias()) << "threads " << threads;
  }
}

// ---------- overlapped pipeline stages ----------

// The extractor's topic and graph branches and the three predictor stages
// run concurrently at every fit-threads value. Each reads only const state
// and draws from its own seed, so two fits must write the same bundle bytes.
std::string fit_bundle(const forum::Dataset& dataset,
                       std::span<const forum::QuestionId> history,
                       std::size_t fit_threads) {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 5;
  config.answer.logistic.epochs = 10;
  config.vote.epochs = 5;
  config.timing.epochs = 3;
  config.survival_samples_per_thread = 5;
  config.fit_threads = fit_threads;
  core::ForecastPipeline pipeline(config);
  pipeline.fit(dataset, history);
  std::ostringstream out;
  pipeline.save(out);
  return std::move(out).str();
}

TEST(FitParallelStages, TwoFitsWriteIdenticalBundles) {
  forum::GeneratorConfig generator;
  generator.num_users = 80;
  generator.num_questions = 60;
  generator.seed = 71;
  const auto dataset = forum::generate_forum(generator).dataset.preprocessed();
  const auto history = dataset.questions_in_days(1, 25);
  ASSERT_FALSE(history.empty());
  for (std::size_t threads : {1u, 4u}) {
    const std::string first = fit_bundle(dataset, history, threads);
    const std::string second = fit_bundle(dataset, history, threads);
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(first == second) << "fit-threads " << threads
                                 << ": bundles differ (" << first.size()
                                 << " vs " << second.size() << " bytes)";
  }
}

}  // namespace
}  // namespace forumcast
