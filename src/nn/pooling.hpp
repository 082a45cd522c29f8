#pragma once
// Spatial pooling and shape plumbing: average / max pooling, global average
// pooling (the classifier head of both CNNs), and Flatten.

#include <cstdint>

#include "nn/layer.hpp"

namespace statfi::nn {

class AvgPool2d final : public Layer {
public:
    explicit AvgPool2d(std::int64_t kernel, std::int64_t stride = 0);

    [[nodiscard]] std::string kind() const override { return "avgpool2d"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;

    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }

private:
    std::int64_t kernel_, stride_;
};

class MaxPool2d final : public Layer {
public:
    explicit MaxPool2d(std::int64_t kernel, std::int64_t stride = 0);

    [[nodiscard]] std::string kind() const override { return "maxpool2d"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;

private:
    std::int64_t kernel_, stride_;
};

/// (N, C, H, W) -> (N, C): mean over the spatial plane.
class GlobalAvgPool final : public Layer {
public:
    [[nodiscard]] std::string kind() const override { return "globalavgpool"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    /// A channel's output plane is its one mean.
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
};

/// (N, ...) -> (N, prod(...)).
class Flatten final : public Layer {
public:
    [[nodiscard]] std::string kind() const override { return "flatten"; }
    [[nodiscard]] Shape output_shape(std::span<const Shape> inputs) const override;
    void forward(std::span<const Tensor* const> inputs, Tensor& out) const override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
};

}  // namespace statfi::nn
