#include "core/data_aware.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace statfi::core {

const char* to_string(NormalizationRule rule) noexcept {
    switch (rule) {
        case NormalizationRule::GlobalRange: return "global-range";
        case NormalizationRule::InlierRange: return "inlier-range";
        case NormalizationRule::LogInlierRange: return "log-inlier-range";
    }
    return "?";
}

BitCriticality analyze_weights(std::span<const float> weights,
                               const DataAwareConfig& config) {
    if (weights.empty())
        throw std::invalid_argument("analyze_weights: empty weight set");
    const int bits = fault::bit_width(config.dtype);

    BitCriticality crit;
    crit.f0.assign(static_cast<std::size_t>(bits), 0.0);
    crit.f1.assign(static_cast<std::size_t>(bits), 0.0);
    crit.d01.assign(static_cast<std::size_t>(bits), 0.0);
    crit.d10.assign(static_cast<std::size_t>(bits), 0.0);
    crit.davg.assign(static_cast<std::size_t>(bits), 0.0);

    std::vector<std::uint64_t> ones(static_cast<std::size_t>(bits), 0);
    std::vector<double> dist0(static_cast<std::size_t>(bits), 0.0);  // 0->1
    std::vector<double> dist1(static_cast<std::size_t>(bits), 0.0);  // 1->0

    for (float w : weights) {
        const std::uint32_t word = fault::encode(w, config.dtype, config.quant);
        for (int i = 0; i < bits; ++i) {
            const double d =
                fault::bit_flip_distance(w, i, config.dtype, config.quant);
            if ((word >> i) & 1u) {
                ++ones[static_cast<std::size_t>(i)];
                dist1[static_cast<std::size_t>(i)] += d;
            } else {
                dist0[static_cast<std::size_t>(i)] += d;
            }
        }
    }

    const auto count = static_cast<double>(weights.size());
    for (int i = 0; i < bits; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const double n1 = static_cast<double>(ones[idx]);
        const double n0 = count - n1;
        crit.f1[idx] = n1 / count;
        crit.f0[idx] = n0 / count;
        crit.d01[idx] = n0 > 0.0 ? dist0[idx] / n0 : 0.0;
        crit.d10[idx] = n1 > 0.0 ? dist1[idx] / n1 : 0.0;
        // Eq. 4: expected flip distance weighting each direction by how often
        // the bit actually holds the corresponding golden value.
        crit.davg[idx] = crit.d01[idx] * crit.f0[idx] + crit.d10[idx] * crit.f1[idx];
    }

    // Eq. 5: min-max normalize Davg into [a, b] under the configured rule.
    switch (config.rule) {
        case NormalizationRule::GlobalRange:
            crit.p = stats::minmax_normalize(crit.davg, config.p_min,
                                             config.p_max);
            break;
        case NormalizationRule::InlierRange:
            crit.p = stats::minmax_normalize_robust(crit.davg, config.p_min,
                                                    config.p_max, config.tukey_k);
            break;
        case NormalizationRule::LogInlierRange: {
            std::vector<double> logs(crit.davg.size());
            for (std::size_t i = 0; i < logs.size(); ++i)
                logs[i] = std::log10(crit.davg[i] + 1e-300);
            crit.p = stats::minmax_normalize_robust(logs, config.p_min,
                                                    config.p_max, config.tukey_k);
            break;
        }
    }
    if (config.p_floor > 0.0)
        for (auto& p : crit.p)
            p = std::max(p, std::min(config.p_floor, config.p_max));
    return crit;
}

BitCriticality analyze_network(nn::Network& net, const DataAwareConfig& config) {
    std::vector<float> all;
    for (auto& ref : net.weight_layers())
        all.insert(all.end(), ref.weight->data(),
                   ref.weight->data() + ref.weight->numel());
    return analyze_weights(all, config);
}

float int8_analysis_scale(nn::Network& net,
                          std::span<const fault::QuantParams> layer_quant) {
    if (!layer_quant.empty()) {
        float scale = 0.0f;
        for (const auto& qp : layer_quant) scale = std::max(scale, qp.scale);
        return scale > 0 ? scale : 1.0f;
    }
    float max_abs = 0.0f;
    for (auto& ref : net.weight_layers())
        max_abs = std::max(max_abs, ref.weight->max_abs());
    return max_abs > 0 ? max_abs / 127.0f : 1.0f;
}

}  // namespace statfi::core
