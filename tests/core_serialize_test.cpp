// Model-bundle codec round trips for the three predictors: a decoded
// predictor must predict bit-identically to the one encoded.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/answer_predictor.hpp"
#include "core/timing_predictor.hpp"
#include "core/vote_predictor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::core {
namespace {

/// Encodes `original` into one payload and decodes it back, requiring the
/// decoder to consume every byte.
template <typename Predictor>
Predictor round_trip(const Predictor& original) {
  artifact::Encoder enc;
  original.encode(enc);
  artifact::Decoder dec(enc.bytes(), "predictor");
  Predictor loaded = Predictor::decode(dec);
  dec.finish();
  return loaded;
}

AnswerPredictor fitted_answer_predictor(std::uint64_t seed, int samples) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < samples; ++i) {
    const double x = rng.normal();
    rows.push_back({x, rng.normal(0.0, 10.0)});
    labels.push_back(x > 0.0 ? 1 : 0);
  }
  AnswerPredictor predictor;
  predictor.fit(rows, labels);
  return predictor;
}

TEST(CoreSerialize, AnswerPredictorRoundTrip) {
  const AnswerPredictor original = fitted_answer_predictor(1, 300);
  const AnswerPredictor loaded = round_trip(original);
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> row = {rng.normal(), rng.normal(0.0, 10.0)};
    EXPECT_EQ(original.predict_probability(row),
              loaded.predict_probability(row));
  }
}

TEST(CoreSerialize, VotePredictorRoundTrip) {
  util::Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-2.0, 2.0);
    rows.push_back({x});
    targets.push_back(3.0 * x - 1.0 + rng.normal(0.0, 0.1));
  }
  VotePredictor original({.epochs = 40, .seed = 5});
  original.fit(rows, targets);
  const VotePredictor loaded = round_trip(original);
  for (const auto& row : rows) {
    EXPECT_EQ(original.predict(row), loaded.predict(row));
  }
}

std::vector<TimingThread> tiny_timing_threads() {
  util::Rng rng(7);
  std::vector<TimingThread> threads;
  for (int i = 0; i < 60; ++i) {
    TimingThread thread;
    thread.open_duration = 100.0;
    const bool fast = (i % 2 == 0);
    thread.answers.push_back(
        {{fast ? 1.0 : 0.0, 0.5}, rng.exponential(fast ? 1.0 : 0.05)});
    thread.survival.push_back({{fast ? 1.0 : 0.0, 0.5}, 1.0});
    thread.survival.push_back({{fast ? 0.0 : 1.0, 0.1}, 4.0});
    threads.push_back(std::move(thread));
  }
  return threads;
}

void expect_same_timing(const TimingPredictor& original,
                        const TimingPredictor& loaded, double open_duration) {
  for (double x : {0.0, 0.3, 1.0}) {
    const std::vector<double> features = {x, 0.5};
    EXPECT_EQ(original.predict_delay(features, open_duration),
              loaded.predict_delay(features, open_duration));
    // Non-positive durations fall back to the stored mean open duration.
    EXPECT_EQ(original.predict_delay(features, 0.0),
              loaded.predict_delay(features, 0.0));
    EXPECT_EQ(original.excitation(features), loaded.excitation(features));
    EXPECT_EQ(original.decay(features), loaded.decay(features));
  }
}

TEST(CoreSerialize, TimingPredictorRoundTripLearnedOmega) {
  TimingPredictorConfig config;
  config.epochs = 10;
  config.f_hidden = {8, 4};
  config.g_hidden = {8, 4};
  TimingPredictor original(config);
  original.fit(tiny_timing_threads());
  expect_same_timing(original, round_trip(original), 100.0);
}

TEST(CoreSerialize, TimingPredictorRoundTripConstantOmega) {
  TimingPredictorConfig config;
  config.epochs = 8;
  config.f_hidden = {6};
  config.learn_omega = false;
  config.expectation = TimingPredictorConfig::Expectation::PaperUnnormalized;
  TimingPredictor original(config);
  original.fit(tiny_timing_threads());
  const TimingPredictor loaded = round_trip(original);
  expect_same_timing(original, loaded, 50.0);
  // Constant ω is one shared value, not a per-pair network output.
  EXPECT_EQ(loaded.decay(std::vector<double>{0.0, 0.5}),
            loaded.decay(std::vector<double>{1.0, 0.1}));
}

TEST(CoreSerialize, UnfittedSaveRejected) {
  artifact::Encoder enc;
  EXPECT_THROW(AnswerPredictor().encode(enc), util::CheckError);
  EXPECT_THROW(VotePredictor().encode(enc), util::CheckError);
  EXPECT_THROW(TimingPredictor().encode(enc), util::CheckError);
  EXPECT_EQ(enc.size(), 0u);
}

TEST(CoreSerialize, CrossKindLoadRejected) {
  const AnswerPredictor answer = fitted_answer_predictor(9, 50);
  std::stringstream bundle;
  {
    artifact::Encoder enc;
    answer.encode(enc);
    artifact::BundleWriter writer(bundle);
    writer.section(artifact::SectionKind::kAnswerPredictor, enc);
    writer.finish();
  }
  const std::string bytes = bundle.str();
  for (artifact::SectionKind wanted : {artifact::SectionKind::kVotePredictor,
                                       artifact::SectionKind::kTimingPredictor}) {
    std::istringstream in(bytes);
    artifact::BundleReader reader(in);
    EXPECT_THROW(reader.expect(wanted), util::CheckError)
        << artifact::section_kind_name(wanted);
  }
  // The matching kind still decodes.
  std::istringstream in(bytes);
  artifact::BundleReader reader(in);
  artifact::Decoder dec = reader.expect(artifact::SectionKind::kAnswerPredictor);
  const AnswerPredictor loaded = AnswerPredictor::decode(dec);
  dec.finish();
  reader.finish();
  const std::vector<double> row = {0.25, -3.0};
  EXPECT_EQ(answer.predict_probability(row), loaded.predict_probability(row));
}

}  // namespace
}  // namespace forumcast::core
