#pragma once
// Elementwise activations: ReLU (ResNet) and ReLU6 (MobileNetV2).

#include "nn/layer.hpp"

namespace statfi::nn {

class ReLU final : public Layer {
public:
    [[nodiscard]] std::string kind() const override { return "relu"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
};

class ReLU6 final : public Layer {
public:
    [[nodiscard]] std::string kind() const override { return "relu6"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
};

}  // namespace statfi::nn
