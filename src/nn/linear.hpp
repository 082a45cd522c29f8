#pragma once
// Fully-connected layer. Its weight matrix is a fault-injection target
// (the paper's ResNet-20 "layer 19": 64x10 = 640 weights). The bias is
// optional and, like BN parameters, never injected.

#include <cstdint>

#include "nn/layer.hpp"

namespace statfi::nn {

class Linear final : public Layer {
public:
    Linear(std::int64_t in_features, std::int64_t out_features,
           bool with_bias = false);

    [[nodiscard]] std::string kind() const override { return "linear"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;

    [[nodiscard]] bool has_injectable_weight() const override { return true; }
    [[nodiscard]] Tensor* injectable_weight() override { return &weight_; }
    [[nodiscard]] const Tensor* injectable_weight() const override {
        return &weight_;
    }

    [[nodiscard]] bool supports_row_update() const override { return true; }
    [[nodiscard]] std::int64_t row_of_weight(
        std::uint64_t weight_index) const override {
        return static_cast<std::int64_t>(weight_index) / in_features_;
    }
    /// Recomputes output feature row_of_weight(weight_index) per batch
    /// row; nothing to cache.
    void forward_row_cached(std::span<const Tensor* const> inputs,
                            std::uint64_t weight_index, Tensor& cache,
                            Tensor& out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
    [[nodiscard]] std::vector<ParamRef> params() override;
    void zero_grad() override;

    [[nodiscard]] Tensor& weight() { return weight_; }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] Tensor& bias() { return bias_; }
    [[nodiscard]] bool with_bias() const { return with_bias_; }
    [[nodiscard]] std::int64_t in_features() const { return in_features_; }
    [[nodiscard]] std::int64_t out_features() const { return out_features_; }

private:
    /// Output feature @p o for input row @p xr: the one dot product
    /// forward() and forward_row_cached() share, so a recomputed feature
    /// matches the full forward by construction.
    [[nodiscard]] float feature(const float* xr, std::int64_t o) const;

    std::int64_t in_features_, out_features_;
    bool with_bias_;
    Tensor weight_;  // (out, in)
    Tensor bias_;    // (out) if with_bias_
    Tensor weight_grad_;
    Tensor bias_grad_;
};

}  // namespace statfi::nn
