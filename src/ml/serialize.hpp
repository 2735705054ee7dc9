// Model persistence: binary *artifact* codecs (encode_*/decode_*) speaking
// the artifact::Encoder/Decoder protocol. The model bundle
// (ForecastPipeline::save/load) is the only model format; doubles travel as
// raw IEEE bits, so a decoded model predicts bit-identically to the one
// encoded, and every decoder validates dimensions and values (NaN/Inf,
// truncation) with the offending field named.
//
// Covers every trainable piece a deployment ships without retraining: MLPs,
// scalers, logistic/Poisson regressions, the matrix-factorization and
// SPARFA baselines, and Adam optimizer state (resumable fits).
#pragma once

#include <string>

#include "artifact/artifact.hpp"
#include "ml/adam.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/matrix_factorization.hpp"
#include "ml/mlp.hpp"
#include "ml/poisson_regression.hpp"
#include "ml/quant.hpp"
#include "ml/scaler.hpp"
#include "ml/sparfa.hpp"

namespace forumcast::ml {

/// Parses an activation name written by activation_name(); throws on unknown.
Activation activation_from_name(const std::string& name);

// Each decode_* reverses the matching encode_* and produces a model whose
// predictions are bit-identical to the encoded one.

void encode_scaler(const StandardScaler& scaler, artifact::Encoder& enc);
StandardScaler decode_scaler(artifact::Decoder& dec);

void encode_logistic(const LogisticRegression& model, artifact::Encoder& enc);
LogisticRegression decode_logistic(artifact::Decoder& dec);

void encode_mlp(const Mlp& model, artifact::Encoder& enc);
Mlp decode_mlp(artifact::Decoder& dec);

/// Stores layers with *unpadded* int8 weight rows (units × fan_in) so the
/// on-disk format is independent of QuantizedMlp::kPad; decode re-pads and
/// rebuilds row sums via QuantizedMlp::from_layers.
void encode_quantized_mlp(const QuantizedMlp& model, artifact::Encoder& enc);
QuantizedMlp decode_quantized_mlp(artifact::Decoder& dec);

void encode_poisson(const PoissonRegression& model, artifact::Encoder& enc);
PoissonRegression decode_poisson(artifact::Decoder& dec);

void encode_matrix_factorization(const MatrixFactorization& model,
                                 artifact::Encoder& enc);
MatrixFactorization decode_matrix_factorization(artifact::Decoder& dec);

void encode_sparfa(const Sparfa& model, artifact::Encoder& enc);
Sparfa decode_sparfa(artifact::Decoder& dec);

void encode_adam(const Adam& optimizer, artifact::Encoder& enc);
Adam decode_adam(artifact::Decoder& dec);

}  // namespace forumcast::ml
