#pragma once
// 2-D convolutions: standard (the kernel backend's conv2d_range — explicit
// im2col + GEMM on the generic backend, GEMM panels packed straight from the
// input on AVX2; a plain GEMM when pointwise) and depthwise (the kernel
// backend's depthwise_conv2d — the direct loop nest on the generic backend,
// 8 outputs per vector on AVX2).
// Convolution weights are THE fault-injection target of the paper; both
// classes expose their weight tensor through Layer::injectable_weight().
// Biases are intentionally absent: the CIFAR ResNet / MobileNetV2 conv
// layers are bias-free (BN provides the affine part), matching the paper's
// parameter counts.

#include <cstdint>

#include "kernels/arena.hpp"
#include "kernels/registry.hpp"
#include "nn/layer.hpp"

namespace statfi::nn {

/// im2col: expand input patch columns (kernels::im2col). @p input is one
/// image (C,H,W) laid out contiguously; @p cols has shape [C*K*K, OH*OW]
/// row-major.
void im2col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t padding, float* cols);

/// col2im: scatter-accumulate columns back to an image buffer (zeroed by the
/// caller). Inverse companion of im2col for gradient computation.
void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t padding, float* input);

/// Output spatial size for a conv/pool: floor((in + 2p - k)/s) + 1.
std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t padding);

/// The kernel backend's geometry of a square window over @p channels planes
/// of height x width, output sizes from conv_out_size.
kernels::ConvGeometry conv_geometry(std::int64_t channels, std::int64_t height,
                                    std::int64_t width, std::int64_t kernel,
                                    std::int64_t stride, std::int64_t padding);

/// Standard 2-D convolution, square kernel, no bias, no dilation/groups.
class Conv2d final : public Layer {
public:
    Conv2d(std::int64_t in_channels, std::int64_t out_channels,
           std::int64_t kernel, std::int64_t stride = 1, std::int64_t padding = 0);

    [[nodiscard]] std::string kind() const override { return "conv2d"; }
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
        return static_cast<std::int64_t>(weight_index) /
               (in_channels_ * kernel_ * kernel_);
    }
    /// Caches every image's im2col matrix; a pointwise conv reads its
    /// input as-is and leaves @p cache untouched.
    void forward_row_cached(std::span<const Tensor* const> inputs,
                            std::uint64_t weight_index, Tensor& cache,
                            Tensor& out) const override;
    /// Row r starts from the golden partial sums over k < channel * K * K
    /// (the input channels before its own, where it equals golden) and
    /// runs k >= channel * K * K on its own input: each output still gets
    /// +0.0f, then one mul and one add per k in ascending k with the same
    /// zero skips, so a row is forward()'s bit for bit. The rows sharing a
    /// golden input advance one golden sum through their channels, handing
    /// it from row to row in @p out.
    /// @throws std::invalid_argument when the lanes are out of order.
    void forward_resume(std::span<const Tensor* const> inputs,
                        std::span<const ResumeLane> lanes,
                        Tensor& out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
    [[nodiscard]] std::vector<ParamRef> params() override;
    void zero_grad() override;

    [[nodiscard]] Tensor& weight() { return weight_; }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
    [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }
    [[nodiscard]] std::int64_t padding() const { return padding_; }
    /// Current forward workspace footprint (grow-only; see arena_ below).
    [[nodiscard]] std::size_t workspace_bytes() const { return arena_.bytes(); }

private:
    /// out[Cout, OH*OW] += weight[:, k0:k1] * im2col(image)[k0:k1, :] for
    /// one image of @p H x @p W: the kernel backend's gemm_range when
    /// pointwise, its conv2d_range otherwise.
    void accumulate(std::int64_t H, std::int64_t W, std::size_t k0,
                    std::size_t k1, const float* image, float* out) const;

    std::int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
    Tensor weight_;       // (Cout, Cin, K, K)
    Tensor weight_grad_;  // same shape
    /// Grow-only workspace of conv2d_range, reused across forward calls and
    /// images: the im2col matrix on the generic backend, the zero-bordered
    /// input copy on AVX2. Fault campaigns run ~10^5 forwards per layer, and
    /// a fresh buffer per call dominated the allocator profile. The arena
    /// grows to the largest image seen and never shrinks. Each campaign
    /// worker owns a private network clone, so the workspace is
    /// single-threaded by construction.
    mutable kernels::ScratchArena arena_;
};

/// Depthwise 2-D convolution (groups == channels), square kernel, no bias.
class DepthwiseConv2d final : public Layer {
public:
    DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                    std::int64_t stride = 1, std::int64_t padding = 0);

    [[nodiscard]] std::string kind() const override { return "dwconv2d"; }
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
        return static_cast<std::int64_t>(weight_index) / (kernel_ * kernel_);
    }
    /// Recomputes one channel plane per image (forward_channel); nothing
    /// to cache.
    void forward_row_cached(std::span<const Tensor* const> inputs,
                            std::uint64_t weight_index, Tensor& cache,
                            Tensor& out) const override;
    /// depthwise_conv2d with channels = 1 on channel c's plane and taps.
    [[nodiscard]] bool channel_local() const override { return true; }
    void forward_channel(std::span<const float* const> inputs, const Shape& in,
                         std::int64_t c, float* out) const override;

    [[nodiscard]] bool supports_backward() const override { return true; }
    void backward(std::span<const Tensor* const> inputs, const Tensor& output,
                  const Tensor& grad_out, std::vector<Tensor>& grad_inputs) override;
    [[nodiscard]] std::vector<ParamRef> params() override;
    void zero_grad() override;

    [[nodiscard]] Tensor& weight() { return weight_; }
    [[nodiscard]] std::int64_t channels() const { return channels_; }
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }
    [[nodiscard]] std::int64_t padding() const { return padding_; }
    /// Current forward workspace footprint (grow-only; see arena_ below).
    [[nodiscard]] std::size_t workspace_bytes() const { return arena_.bytes(); }

private:
    std::int64_t channels_, kernel_, stride_, padding_;
    Tensor weight_;       // (C, 1, K, K)
    Tensor weight_grad_;  // same shape
    /// Grow-only workspace of depthwise_conv2d, reused across forward calls,
    /// images and channels: one zero-bordered input plane on AVX2 (empty on
    /// the generic backend). Single-threaded by construction, as Conv2d's.
    mutable kernels::ScratchArena arena_;
};

}  // namespace statfi::nn
