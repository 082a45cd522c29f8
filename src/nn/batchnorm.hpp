#pragma once
// 2-D batch normalization, inference mode: y = gamma * (x - mean) /
// sqrt(var + eps) + beta with fixed running statistics.
//
// BN parameters are deliberately NOT injectable — the paper's fault model
// targets conv/FC weights only, and its per-layer parameter counts (Table I)
// exclude BN. The running statistics are folded into per-channel scale/shift
// once at configuration time, so inference pays one FMA per element.

#include <cstdint>

#include "nn/layer.hpp"

namespace statfi::nn {

class BatchNorm2d final : public Layer {
public:
    explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f);

    [[nodiscard]] std::string kind() const override { return "batchnorm2d"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    /// Configure the affine transform and running statistics; recomputes the
    /// folded per-channel scale/shift. All four tensors must have shape (C).
    void set_statistics(const Tensor& gamma, const Tensor& beta,
                        const Tensor& running_mean, const Tensor& running_var);

    [[nodiscard]] std::int64_t channels() const { return channels_; }

private:
    std::int64_t channels_;
    float eps_;
    Tensor scale_;  // gamma / sqrt(var + eps)
    Tensor shift_;  // beta - mean * scale
};

}  // namespace statfi::nn
