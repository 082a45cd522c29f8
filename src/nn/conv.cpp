#include "nn/conv.hpp"

#include <cstring>
#include <stdexcept>

#include "kernels/registry.hpp"
#include "nn/gemm.hpp"

namespace statfi::nn {

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t padding) {
    const std::int64_t out = (in + 2 * padding - kernel) / stride + 1;
    if (out <= 0)
        throw std::invalid_argument("conv_out_size: non-positive output size");
    return out;
}

kernels::ConvGeometry conv_geometry(std::int64_t channels, std::int64_t height,
                                    std::int64_t width, std::int64_t kernel,
                                    std::int64_t stride, std::int64_t padding) {
    const auto u = [](std::int64_t v) { return static_cast<std::size_t>(v); };
    return {u(channels),
            u(height),
            u(width),
            u(kernel),
            u(stride),
            u(padding),
            u(conv_out_size(height, kernel, stride, padding)),
            u(conv_out_size(width, kernel, stride, padding))};
}

void im2col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t padding, float* cols) {
    kernels::im2col(
        conv_geometry(channels, height, width, kernel, stride, padding), input,
        cols);
}

void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t padding, float* input) {
    const std::int64_t oh = conv_out_size(height, kernel, stride, padding);
    const std::int64_t ow = conv_out_size(width, kernel, stride, padding);
    const std::int64_t out_plane = oh * ow;
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < channels; ++c) {
        float* plane = input + c * height * width;
        for (std::int64_t kh = 0; kh < kernel; ++kh) {
            for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
                const float* src = cols + row * out_plane;
                for (std::int64_t y = 0; y < oh; ++y) {
                    const std::int64_t in_y = y * stride + kh - padding;
                    if (in_y < 0 || in_y >= height) continue;
                    float* dst_row = plane + in_y * width;
                    for (std::int64_t x = 0; x < ow; ++x) {
                        const std::int64_t in_x = x * stride + kw - padding;
                        if (in_x >= 0 && in_x < width)
                            dst_row[in_x] += src[y * ow + x];
                    }
                }
            }
        }
    }
}

namespace {
void check_single_4d_input(std::span<const Shape> inputs, std::int64_t channels,
                           const char* who) {
    if (inputs.size() != 1)
        throw std::invalid_argument(std::string(who) + ": expects 1 input");
    if (inputs[0].rank() != 4)
        throw std::invalid_argument(std::string(who) + ": expects NCHW input");
    if (inputs[0][1] != channels)
        throw std::invalid_argument(std::string(who) + ": channel mismatch (got " +
                                    std::to_string(inputs[0][1]) + ", want " +
                                    std::to_string(channels) + ")");
}
}  // namespace

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels, in_channels, kernel, kernel}),
      weight_grad_(Shape{out_channels, in_channels, kernel, kernel}) {
    if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
        padding < 0)
        throw std::invalid_argument("Conv2d: invalid geometry");
}

Shape Conv2d::output_shape(std::span<const Shape> inputs) const {
    check_single_4d_input(inputs, in_channels_, "Conv2d");
    const auto& in = inputs[0];
    return Shape{in[0], out_channels_,
                 conv_out_size(in[2], kernel_, stride_, padding_),
                 conv_out_size(in[3], kernel_, stride_, padding_)};
}

void Conv2d::accumulate(std::int64_t H, std::int64_t W, std::size_t k0,
                        std::size_t k1, const float* image, float* out) const {
    // K=1, s=1, p=0 convolutions (MobileNetV2's pointwise layers) are plain
    // GEMMs over the input as-is; every other conv is the kernel backend's
    // conv2d_range.
    const kernels::Kernels& k = kernels::active();
    const auto M = static_cast<std::size_t>(out_channels_);
    if (kernel_ == 1 && stride_ == 1 && padding_ == 0)
        k.gemm_range(M, static_cast<std::size_t>(H * W),
                     static_cast<std::size_t>(in_channels_), k0, k1,
                     weight_.data(), image, out);
    else
        k.conv2d_range(
            conv_geometry(in_channels_, H, W, kernel_, stride_, padding_), M,
            k0, k1, weight_.data(), image, out, arena_);
}

void Conv2d::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    const Shape out_shape = output_shape(std::array{in});
    ensure_shape(out, out_shape);
    out.zero();

    const std::int64_t H = in[2], W = in[3];
    const std::size_t in_image = static_cast<std::size_t>(in_channels_ * H * W);
    const std::size_t out_image = out.numel() / static_cast<std::size_t>(in[0]);
    const auto K = static_cast<std::size_t>(in_channels_ * kernel_ * kernel_);
    for (std::int64_t n = 0; n < in[0]; ++n)
        accumulate(H, W, 0, K,
                   x.data() + static_cast<std::size_t>(n) * in_image,
                   out.data() + static_cast<std::size_t>(n) * out_image);
}

void Conv2d::forward_resume(std::span<const Tensor* const> inputs,
                            std::span<const ResumeLane> lanes,
                            Tensor& out) const {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    if (lanes.size() != static_cast<std::size_t>(in[0]))
        throw std::invalid_argument("Conv2d::forward_resume: one lane per row");
    const Shape out_shape = output_shape(std::array{in});
    ensure_shape(out, out_shape);

    const std::int64_t H = in[2], W = in[3];
    const std::size_t in_image = static_cast<std::size_t>(in_channels_ * H * W);
    const auto out_image =
        static_cast<std::size_t>(out_shape[1] * out_shape[2] * out_shape[3]);
    const auto taps = static_cast<std::size_t>(kernel_ * kernel_);
    const std::size_t K = static_cast<std::size_t>(in_channels_) * taps;
    const auto first_k = [&](std::size_t r) {
        return static_cast<std::size_t>(lanes[r].channel) * taps;
    };
    // Row r first holds the golden sums over k < first_k(r): the row before
    // it advanced over the golden input, when both share it, else a fresh
    // golden sum. So one running sum per golden input is all the golden
    // work, and it lives in the rows themselves.
    for (std::size_t r = 0; r < lanes.size(); ++r) {
        const std::size_t k = first_k(r);
        const bool shared = r > 0 && lanes[r].golden == lanes[r - 1].golden;
        if (k >= K || (shared && k < first_k(r - 1)))
            throw std::invalid_argument(
                "Conv2d::forward_resume: lanes out of channel order");
        float* dst = out.data() + r * out_image;
        if (shared)
            std::memcpy(dst, dst - out_image, out_image * sizeof(float));
        else
            std::fill_n(dst, out_image, 0.0f);
        accumulate(H, W, shared ? first_k(r - 1) : 0, k,
                   lanes[r].golden->data(), dst);
    }
    // Then each row runs the rest on its own input.
    for (std::size_t r = 0; r < lanes.size(); ++r)
        accumulate(H, W, first_k(r), K, x.data() + r * in_image,
                   out.data() + r * out_image);
}

void Conv2d::forward_row_cached(std::span<const Tensor* const> inputs,
                                std::uint64_t weight_index, Tensor& cache,
                                Tensor& out) const {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    const Shape out_shape = output_shape(std::array{in});
    ensure_shape(out, out_shape);

    const std::int64_t N = in[0], H = in[2], W = in[3];
    const std::int64_t OH = out_shape[2], OW = out_shape[3];
    const std::size_t col_rows =
        static_cast<std::size_t>(in_channels_ * kernel_ * kernel_);
    const std::size_t out_plane = static_cast<std::size_t>(OH * OW);
    const std::size_t co = static_cast<std::size_t>(row_of_weight(weight_index));

    // B per image, as forward() feeds it: the input itself for a pointwise
    // conv, else the im2col matrix — built into the cache on first use. The
    // caller guarantees the inputs are unchanged on subsequent calls, so a
    // matching shape means the contents are already valid.
    const std::size_t per_image = col_rows * out_plane;
    const float* b = x.data();
    if (!(kernel_ == 1 && stride_ == 1 && padding_ == 0)) {
        const Shape cache_shape{N, static_cast<std::int64_t>(col_rows),
                                static_cast<std::int64_t>(OH * OW)};
        const std::size_t in_image =
            static_cast<std::size_t>(in_channels_ * H * W);
        if (cache.shape() != cache_shape) {
            ensure_shape(cache, cache_shape);
            for (std::int64_t n = 0; n < N; ++n)
                im2col(x.data() + static_cast<std::size_t>(n) * in_image,
                       in_channels_, H, W, kernel_, stride_, padding_,
                       cache.data() + static_cast<std::size_t>(n) * per_image);
        }
        b = cache.data();
    }

    // One-row GEMM: per-element additions stay in ascending-k order, so the
    // row is bit-identical to what the full Cout-row gemm produces.
    const std::size_t out_image =
        static_cast<std::size_t>(out_channels_) * out_plane;
    const float* wrow = weight_.data() + co * col_rows;
    for (std::int64_t n = 0; n < N; ++n)
        gemm(1, out_plane, col_rows, wrow,
             b + static_cast<std::size_t>(n) * per_image,
             out.data() + static_cast<std::size_t>(n) * out_image +
                 co * out_plane);
}

std::unique_ptr<Layer> Conv2d::clone() const {
    return std::make_unique<Conv2d>(*this);
}

void Conv2d::backward(std::span<const Tensor* const> inputs, const Tensor&,
                      const Tensor& grad_out, std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    const std::int64_t N = in[0], H = in[2], W = in[3];
    const std::int64_t OH = grad_out.shape()[2], OW = grad_out.shape()[3];
    const std::size_t col_rows =
        static_cast<std::size_t>(in_channels_ * kernel_ * kernel_);
    const std::size_t out_plane = static_cast<std::size_t>(OH * OW);

    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], in);
    grad_inputs[0].zero();

    std::vector<float> cols(col_rows * out_plane);
    std::vector<float> col_grad(col_rows * out_plane);
    const std::size_t in_image = static_cast<std::size_t>(in_channels_ * H * W);
    const std::size_t out_image =
        static_cast<std::size_t>(out_channels_) * out_plane;

    for (std::int64_t n = 0; n < N; ++n) {
        const float* src = x.data() + static_cast<std::size_t>(n) * in_image;
        const float* go = grad_out.data() + static_cast<std::size_t>(n) * out_image;
        im2col(src, in_channels_, H, W, kernel_, stride_, padding_, cols.data());
        // dW[Cout, CKK] += dY[Cout, OHW] * cols[CKK, OHW]^T
        gemm_a_bt_accumulate(static_cast<std::size_t>(out_channels_), col_rows,
                             out_plane, go, cols.data(), weight_grad_.data());
        // dcols[CKK, OHW] = W[Cout, CKK]^T * dY[Cout, OHW]
        gemm_at_b(col_rows, out_plane, static_cast<std::size_t>(out_channels_),
                  weight_.data(), go, col_grad.data());
        col2im(col_grad.data(), in_channels_, H, W, kernel_, stride_, padding_,
               grad_inputs[0].data() + static_cast<std::size_t>(n) * in_image);
    }
}

std::vector<ParamRef> Conv2d::params() {
    return {ParamRef{&weight_, &weight_grad_}};
}

void Conv2d::zero_grad() { weight_grad_.zero(); }

// ------------------------------------------------------- DepthwiseConv2d --

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t padding)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Shape{channels, 1, kernel, kernel}),
      weight_grad_(Shape{channels, 1, kernel, kernel}) {
    if (channels <= 0 || kernel <= 0 || stride <= 0 || padding < 0)
        throw std::invalid_argument("DepthwiseConv2d: invalid geometry");
}

Shape DepthwiseConv2d::output_shape(std::span<const Shape> inputs) const {
    check_single_4d_input(inputs, channels_, "DepthwiseConv2d");
    const auto& in = inputs[0];
    return Shape{in[0], channels_,
                 conv_out_size(in[2], kernel_, stride_, padding_),
                 conv_out_size(in[3], kernel_, stride_, padding_)};
}

void DepthwiseConv2d::forward(std::span<const Tensor* const> inputs,
                              Tensor& out) const {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    const Shape out_shape = output_shape(std::array{in});
    ensure_shape(out, out_shape);

    const kernels::ConvGeometry g =
        conv_geometry(channels_, in[2], in[3], kernel_, stride_, padding_);
    const std::size_t in_image = g.channels * g.height * g.width;
    const std::size_t out_image = g.channels * g.out_height * g.out_width;
    const kernels::Kernels& k = kernels::active();
    for (std::int64_t n = 0; n < in[0]; ++n)
        k.depthwise_conv2d(g, weight_.data(),
                           x.data() + static_cast<std::size_t>(n) * in_image,
                           out.data() + static_cast<std::size_t>(n) * out_image,
                           arena_);
}

void DepthwiseConv2d::forward_row_cached(std::span<const Tensor* const> inputs,
                                         std::uint64_t weight_index, Tensor&,
                                         Tensor& out) const {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    const Shape out_shape = output_shape(std::array{in});
    ensure_shape(out, out_shape);

    // Channel c's plane of every image.
    const std::size_t in_plane = channel_plane(in);
    const std::size_t out_plane = channel_plane(out_shape);
    const std::int64_t c = row_of_weight(weight_index);
    const auto C = static_cast<std::size_t>(channels_);
    for (std::size_t n = 0; n < static_cast<std::size_t>(in[0]); ++n) {
        const std::size_t at = n * C + static_cast<std::size_t>(c);
        const float* plane = x.data() + at * in_plane;
        forward_channel(std::span(&plane, 1), in, c,
                        out.data() + at * out_plane);
    }
}

void DepthwiseConv2d::forward_channel(std::span<const float* const> inputs,
                                      const Shape& in, std::int64_t c,
                                      float* out) const {
    // The same kernel entry as forward(), with channels = 1.
    const kernels::ConvGeometry g =
        conv_geometry(1, in[2], in[3], kernel_, stride_, padding_);
    kernels::active().depthwise_conv2d(
        g, weight_.data() + static_cast<std::size_t>(c) * g.kernel * g.kernel,
        inputs[0], out, arena_);
}

std::unique_ptr<Layer> DepthwiseConv2d::clone() const {
    return std::make_unique<DepthwiseConv2d>(*this);
}

void DepthwiseConv2d::backward(std::span<const Tensor* const> inputs,
                               const Tensor&, const Tensor& grad_out,
                               std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    const auto& in = x.shape();
    const std::int64_t N = in[0], H = in[2], W = in[3];
    const std::int64_t OH = grad_out.shape()[2], OW = grad_out.shape()[3];

    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], in);
    grad_inputs[0].zero();

    for (std::int64_t n = 0; n < N; ++n) {
        for (std::int64_t c = 0; c < channels_; ++c) {
            const float* plane =
                x.data() + static_cast<std::size_t>((n * channels_ + c) * H * W);
            const float* go = grad_out.data() +
                              static_cast<std::size_t>((n * channels_ + c) * OH * OW);
            const float* k =
                weight_.data() + static_cast<std::size_t>(c * kernel_ * kernel_);
            float* kg = weight_grad_.data() +
                        static_cast<std::size_t>(c * kernel_ * kernel_);
            float* gi = grad_inputs[0].data() +
                        static_cast<std::size_t>((n * channels_ + c) * H * W);
            for (std::int64_t y = 0; y < OH; ++y) {
                for (std::int64_t x2 = 0; x2 < OW; ++x2) {
                    const float g = go[y * OW + x2];
                    if (g == 0.0f) continue;
                    for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                        const std::int64_t in_y = y * stride_ + kh - padding_;
                        if (in_y < 0 || in_y >= H) continue;
                        for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                            const std::int64_t in_x = x2 * stride_ + kw - padding_;
                            if (in_x < 0 || in_x >= W) continue;
                            kg[kh * kernel_ + kw] += g * plane[in_y * W + in_x];
                            gi[in_y * W + in_x] += g * k[kh * kernel_ + kw];
                        }
                    }
                }
            }
        }
    }
}

std::vector<ParamRef> DepthwiseConv2d::params() {
    return {ParamRef{&weight_, &weight_grad_}};
}

void DepthwiseConv2d::zero_grad() { weight_grad_.zero(); }

}  // namespace statfi::nn
