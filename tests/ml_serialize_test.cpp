#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ml/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Doubles a serializer is most likely to mangle: signed zero, denormals,
/// max precision.
std::vector<double> nasty_doubles() {
  return {
      -0.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      0.1,
      1.0 / 3.0,
      std::nextafter(1.0, 2.0),
  };
}

TEST(Serialize, MlpActivationNamesRoundTrip) {
  for (Activation act : {Activation::Identity, Activation::ReLU,
                         Activation::Tanh, Activation::Sigmoid,
                         Activation::Softplus}) {
    EXPECT_EQ(activation_from_name(activation_name(act)), act);
    // Every activation survives the MLP codec, which stores it by name.
    Mlp original(2, {{3, act}, {1, Activation::Identity}}, 9);
    artifact::Encoder enc;
    encode_mlp(original, enc);
    artifact::Decoder dec(enc.bytes(), "mlp");
    const Mlp loaded = decode_mlp(dec);
    dec.finish();
    EXPECT_EQ(loaded.layers().front().activation, act);
  }
  EXPECT_THROW(activation_from_name("swish"), util::CheckError);
}

TEST(Serialize, MlpRejectsCorruptHeader) {
  // Hand-built encode_mlp payloads: input dim, layer count, per-layer
  // (units, activation name), then the parameter vector.
  auto payload = [](std::uint64_t layers, std::uint64_t units,
                    const char* activation, std::size_t params) {
    artifact::Encoder enc;
    enc.u64(3);
    enc.u64(layers);
    for (std::uint64_t l = 0; l < layers; ++l) {
      enc.u64(units);
      enc.str(activation);
    }
    enc.f64s(std::vector<double>(params, 0.5), "mlp params");
    return enc.bytes();
  };
  // 3 inputs -> 4 relu units: 3·4 weights + 4 biases.
  {
    artifact::Decoder dec(payload(1, 4, "relu", 16), "mlp");
    EXPECT_NO_THROW(decode_mlp(dec));
  }
  for (const std::string& bad :
       {payload(0, 4, "relu", 16), payload(1, 0, "relu", 16),
        payload(1, 4, "swish", 16), payload(1, 4, "relu", 15)}) {
    artifact::Decoder dec(bad, "mlp");
    EXPECT_THROW(decode_mlp(dec), util::CheckError);
  }
}

TEST(Serialize, FromMomentsValidation) {
  EXPECT_THROW(StandardScaler::from_moments({}, {}), util::CheckError);
  EXPECT_THROW(StandardScaler::from_moments({1.0}, {1.0, 2.0}), util::CheckError);
  EXPECT_THROW(StandardScaler::from_moments({1.0}, {0.0}), util::CheckError);
  const auto scaler = StandardScaler::from_moments({2.0}, {4.0});
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{10.0})[0], 2.0);
}

TEST(Serialize, FromParametersValidation) {
  EXPECT_THROW(LogisticRegression::from_parameters({}, 0.0), util::CheckError);
  const auto model = LogisticRegression::from_parameters({1.0}, 0.0);
  EXPECT_DOUBLE_EQ(model.predict_probability(std::vector<double>{0.0}), 0.5);
}

// ---------------------------------------------------------------------------
// Binary artifact codecs: every decode must be bit-identical to the encoded
// model, and every truncated payload must throw.

TEST(Serialize, BinaryScalerRoundTripBitExact) {
  const auto original = StandardScaler::from_moments(
      {std::numeric_limits<double>::denorm_min(), -0.0, 0.1},
      {std::numeric_limits<double>::min(), 4.0, 1.0 / 3.0});
  artifact::Encoder enc;
  encode_scaler(original, enc);
  artifact::Decoder dec(enc.bytes(), "scaler");
  const auto loaded = decode_scaler(dec);
  dec.finish();
  const std::vector<double> x = {1e-300, 2.0, -5.5};
  const auto a = original.transform(x);
  const auto b = loaded.transform(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i]));
}

TEST(Serialize, BinaryLogisticRoundTripBitExact) {
  for (double bias : {-0.0, std::numeric_limits<double>::denorm_min()}) {
    const auto original =
        LogisticRegression::from_parameters(nasty_doubles(), bias);
    artifact::Encoder enc;
    encode_logistic(original, enc);
    artifact::Decoder dec(enc.bytes(), "logistic");
    const auto loaded = decode_logistic(dec);
    dec.finish();
    ASSERT_EQ(loaded.weights().size(), original.weights().size());
    for (std::size_t i = 0; i < original.weights().size(); ++i) {
      EXPECT_EQ(bits(loaded.weights()[i]), bits(original.weights()[i]))
          << "weight " << i;
    }
    EXPECT_EQ(bits(loaded.bias()), bits(bias));
    EXPECT_TRUE(std::signbit(loaded.weights()[0]));
  }

  // Non-finite values are refused on both sides, naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  artifact::Encoder refused;
  EXPECT_THROW(encode_logistic(LogisticRegression::from_parameters({1.0}, nan),
                               refused),
               util::CheckError);
  for (double bad : {nan, std::numeric_limits<double>::infinity()}) {
    artifact::Encoder enc;
    enc.u64(bits(bad));  // raw IEEE bits in the "logistic bias" slot
    enc.f64s(std::vector<double>{1.0}, "logistic weights");
    artifact::Decoder dec(enc.bytes(), "logistic");
    try {
      decode_logistic(dec);
      FAIL() << "expected CheckError for " << bad;
    } catch (const util::CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("logistic bias"), std::string::npos) << what;
      EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    }
  }
}

TEST(Serialize, BinaryMlpRoundTripBitExact) {
  Mlp original(4,
               {{8, Activation::Tanh},
                {5, Activation::Softplus},
                {2, Activation::Identity}},
               123);
  artifact::Encoder enc;
  encode_mlp(original, enc);
  artifact::Decoder dec(enc.bytes(), "mlp");
  const Mlp loaded = decode_mlp(dec);
  dec.finish();
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(4);
    for (double& v : x) v = rng.normal();
    const auto a = original.forward(x);
    const auto b = loaded.forward(x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(bits(a[i]), bits(b[i]));
    }
  }
}

TEST(Serialize, BinaryPoissonRoundTripBitExact) {
  const auto original = PoissonRegression::from_parameters(
      {0.5, -0.25, 0.1}, 0.125, 3.5);
  artifact::Encoder enc;
  encode_poisson(original, enc);
  artifact::Decoder dec(enc.bytes(), "poisson");
  const auto loaded = decode_poisson(dec);
  dec.finish();
  const std::vector<double> x = {1.0, -2.0, 0.5};
  EXPECT_EQ(bits(loaded.predict_mean(x)), bits(original.predict_mean(x)));
  EXPECT_EQ(bits(loaded.eta_ceiling()), bits(original.eta_ceiling()));
}

TEST(Serialize, BinaryMatrixFactorizationRoundTripBitExact) {
  MatrixFactorizationConfig config;
  config.latent_dim = 2;
  const auto original = MatrixFactorization::from_state(
      config, 0.75, {0.1, -0.2}, {0.3, -0.4, 0.5},
      {0.11, 0.12, 0.21, 0.22}, {1.1, 1.2, 2.1, 2.2, 3.1, 3.2});
  artifact::Encoder enc;
  encode_matrix_factorization(original, enc);
  artifact::Decoder dec(enc.bytes(), "mf");
  const auto loaded = decode_matrix_factorization(dec);
  dec.finish();
  for (std::size_t u = 0; u < 2; ++u) {
    for (std::size_t q = 0; q < 3; ++q) {
      EXPECT_EQ(bits(loaded.predict(u, q)), bits(original.predict(u, q)))
          << "(" << u << ", " << q << ")";
    }
  }
  // Out-of-range ids fall back to the global mean identically.
  EXPECT_EQ(bits(loaded.predict(9, 9)), bits(original.predict(9, 9)));
}

TEST(Serialize, BinarySparfaRoundTripBitExact) {
  SparfaConfig config;
  config.latent_dim = 2;
  const auto original = Sparfa::from_state(
      config, -0.5, {0.0, 0.7, 0.3, 0.0}, {0.4, -0.6, 0.2, 0.9},
      {0.05, -0.15});
  artifact::Encoder enc;
  encode_sparfa(original, enc);
  artifact::Decoder dec(enc.bytes(), "sparfa");
  const auto loaded = decode_sparfa(dec);
  dec.finish();
  for (std::size_t u = 0; u < 2; ++u) {
    for (std::size_t q = 0; q < 2; ++q) {
      EXPECT_EQ(bits(loaded.predict_probability(u, q)),
                bits(original.predict_probability(u, q)))
          << "(" << u << ", " << q << ")";
    }
  }
}

TEST(Serialize, BinaryAdamRoundTripResumesIdentically) {
  AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1e-4;
  Adam original(3, config);
  std::vector<double> params_a = {1.0, -2.0, 0.5};
  const std::vector<double> grads = {0.3, -0.1, 0.7};
  original.step(params_a, grads);
  original.step(params_a, grads);

  artifact::Encoder enc;
  encode_adam(original, enc);
  artifact::Decoder dec(enc.bytes(), "adam");
  Adam loaded = decode_adam(dec);
  dec.finish();
  EXPECT_EQ(loaded.steps_taken(), original.steps_taken());

  // A resumed fit must take the exact step the uninterrupted fit would.
  std::vector<double> params_b = params_a;
  original.step(params_a, grads);
  loaded.step(params_b, grads);
  for (std::size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(bits(params_a[i]), bits(params_b[i])) << "param " << i;
  }
}

TEST(Serialize, BinaryEncodersRejectUnfittedModels) {
  artifact::Encoder enc;
  EXPECT_THROW(encode_scaler(StandardScaler{}, enc), util::CheckError);
  EXPECT_THROW(encode_logistic(LogisticRegression{}, enc), util::CheckError);
  EXPECT_THROW(encode_poisson(PoissonRegression{}, enc), util::CheckError);
  EXPECT_THROW(encode_matrix_factorization(MatrixFactorization{}, enc),
               util::CheckError);
  EXPECT_THROW(encode_sparfa(Sparfa{}, enc), util::CheckError);
}

/// Every strict prefix of `whole` must throw from `decode` + finish().
template <typename Decode>
void expect_every_prefix_rejected(const std::string& whole, Decode decode,
                                  const char* what) {
  for (std::size_t length = 0; length < whole.size(); ++length) {
    artifact::Decoder dec(whole.substr(0, length), what);
    EXPECT_THROW(
        {
          decode(dec);
          dec.finish();
        },
        util::CheckError)
        << what << ": prefix of " << length << " bytes decoded";
  }
  artifact::Decoder dec(whole, what);
  EXPECT_NO_THROW({
    decode(dec);
    dec.finish();
  }) << what;
}

TEST(Serialize, BinaryDecodeRejectsTruncationAtEveryByte) {
  Mlp model(2, {{3, Activation::ReLU}, {1, Activation::Identity}}, 5);
  artifact::Encoder mlp;
  encode_mlp(model, mlp);
  expect_every_prefix_rejected(mlp.bytes(), decode_mlp, "mlp");

  artifact::Encoder scaler;
  encode_scaler(StandardScaler::from_moments({1.0, -2.0}, {0.5, 4.0}), scaler);
  expect_every_prefix_rejected(scaler.bytes(), decode_scaler, "scaler");

  artifact::Encoder logistic;
  encode_logistic(LogisticRegression::from_parameters({0.25, -0.75}, 0.125),
                  logistic);
  expect_every_prefix_rejected(logistic.bytes(), decode_logistic, "logistic");
}

}  // namespace
}  // namespace forumcast::ml
