#pragma once
// Multi-input elementwise layers: residual Add (ResNet shortcuts, MobileNetV2
// inverted-residual connections) and Softmax (probability head).

#include "nn/layer.hpp"

namespace statfi::nn {

/// Elementwise sum of two same-shaped inputs.
class Add final : public Layer {
public:
    [[nodiscard]] std::string kind() const override { return "add"; }
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

/// ResNet option-A shortcut for CIFAR: spatially subsample by stride 2 and
/// zero-pad the channel dimension. Parameter-free, so it contributes no
/// faults — matching the paper's ResNet-20 layer table (no shortcut rows).
class PadShortcut final : public Layer {
public:
    PadShortcut(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride);

    [[nodiscard]] std::string kind() const override { return "padshortcut"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    /// Channel c of the output is channel c of the input, subsampled; the
    /// zero channels past in_channels read nothing.
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;

private:
    std::int64_t in_channels_, out_channels_, stride_;
};

/// Row-wise softmax over (N, F) logits.
class Softmax final : public Layer {
public:
    [[nodiscard]] std::string kind() const override { return "softmax"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
};

}  // namespace statfi::nn
