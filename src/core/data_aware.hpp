#pragma once
// Data-aware bit-criticality analysis (paper §III-B).
//
// From the *golden* weight distribution alone — no injections — derive a
// per-bit-position probability p(i) that a fault in bit i becomes a critical
// failure:
//   f0(i), f1(i): fraction of weights whose stored bit i is 0 / 1  (Fig. 3)
//   D01(i), D10(i): mean |delta| a 0->1 / 1->0 flip of bit i causes (Fig. 2)
//   Davg(i) = D01(i) * f0(i) + D10(i) * f1(i)                       (Eq. 4)
//   p(i)    = minmax-normalize Davg into [0, 0.5], outliers clamped (Eq. 5)
// The paper excludes outliers from the min/max and assigns them the highest
// criticality; we detect them with Tukey fences (k configurable) and clamp.

#include <span>
#include <vector>

#include "fault/codec.hpp"
#include "nn/network.hpp"

namespace statfi::core {

/// How Eq. 5 maps Davg onto [a, b]. The paper's text ("min-max ... without
/// considering the outliers") under-determines the rule; GlobalRange is the
/// one consistent with the paper's published sample sizes: the exponent-MSB
/// Davg is astronomically larger than every other bit's, so normalizing by
/// the full range drives every non-extreme bit to p ~ 0 — exactly the
/// published data-aware totals (one near-0.5 bit per layer plus a small
/// tail). The alternatives are kept for the ablation bench.
enum class NormalizationRule : std::uint8_t {
    /// p = (Davg - min) / (max - min) * (b-a) + a over ALL bits (default).
    GlobalRange,
    /// Min/max over Tukey inliers only; outliers clamped to the extremes.
    InlierRange,
    /// As InlierRange but min-max on log10(Davg) — spreads the geometric
    /// mantissa decay linearly.
    LogInlierRange,
};

const char* to_string(NormalizationRule rule) noexcept;

struct DataAwareConfig {
    fault::DataType dtype = fault::DataType::Float32;
    fault::QuantParams quant;  ///< used by the INT8 codec only
    double p_min = 0.0;        ///< Eq. 5 "a"
    double p_max = 0.5;        ///< Eq. 5 "b"
    double tukey_k = 1.5;      ///< outlier fence multiplier (inlier rules)
    NormalizationRule rule = NormalizationRule::GlobalRange;
    /// Post-normalization floor on p(i). Under GlobalRange the exponent-MSB
    /// Davg drives every other bit's p to ~1e-38, i.e. n = 1 — statistically
    /// blind subpopulations. A floor of 1e-3 keeps every subpopulation
    /// observable (~60 samples at the paper's N) and is the value implied by
    /// the paper's published per-layer data-aware counts (e.g. ResNet-20
    /// layer 0: 821 + 31x62 = 2,743 vs the published 2,732).
    double p_floor = 1e-3;
};

/// Per-bit criticality profile of a weight distribution.
struct BitCriticality {
    std::vector<double> f0;    ///< fraction of weights with bit i == 0
    std::vector<double> f1;    ///< fraction of weights with bit i == 1
    std::vector<double> d01;   ///< mean distance of 0->1 flips at bit i
    std::vector<double> d10;   ///< mean distance of 1->0 flips at bit i
    std::vector<double> davg;  ///< Eq. 4
    std::vector<double> p;     ///< Eq. 5, in [p_min, p_max]

    [[nodiscard]] int bits() const { return static_cast<int>(p.size()); }
};

/// Analyze one weight vector (e.g. a single layer).
/// @throws std::invalid_argument on empty input.
BitCriticality analyze_weights(std::span<const float> weights,
                               const DataAwareConfig& config = {});

/// Analyze all injectable weights of a network as one distribution — the
/// paper computes a single p(i) profile per CNN (Fig. 4).
BitCriticality analyze_network(nn::Network& net,
                               const DataAwareConfig& config = {});

/// The network-wide scale of the Int8 analysis (symmetric, per network).
/// When a QuantizedStore was deployed its per-tensor scales in
/// @p layer_quant are authoritative (the weights are already quantized, and
/// re-deriving would drift) and the scale is their maximum; otherwise it is
/// max|w| / 127 over @p net's weights, the storage view the injector
/// corrupts. 1 when that maximum is zero.
float int8_analysis_scale(nn::Network& net,
                          std::span<const fault::QuantParams> layer_quant);

}  // namespace statfi::core
