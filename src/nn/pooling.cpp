#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

#include "kernels/registry.hpp"
#include "nn/conv.hpp"

namespace statfi::nn {

namespace {
const Shape& require_nchw(std::span<const Shape> inputs, const char* who) {
    if (inputs.size() != 1)
        throw std::invalid_argument(std::string(who) + ": expects 1 input");
    if (inputs[0].rank() != 4)
        throw std::invalid_argument(std::string(who) + ": expects NCHW input");
    return inputs[0];
}
}  // namespace

// -------------------------------------------------------------- AvgPool2d --

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
    if (kernel <= 0 || stride_ <= 0)
        throw std::invalid_argument("AvgPool2d: invalid geometry");
}

Shape AvgPool2d::output_shape(std::span<const Shape> inputs) const {
    const auto& in = require_nchw(inputs, "AvgPool2d");
    return Shape{in[0], in[1], conv_out_size(in[2], kernel_, stride_, 0),
                 conv_out_size(in[3], kernel_, stride_, 0)};
}

void AvgPool2d::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    ensure_shape(out, output_shape(std::array{x.shape()}));
    const auto& d = x.shape().dims();
    kernels::active().avg_pool2d(
        conv_geometry(d[0] * d[1], d[2], d[3], kernel_, stride_, 0), x.data(),
        out.data());
}

std::unique_ptr<Layer> AvgPool2d::clone() const {
    return std::make_unique<AvgPool2d>(*this);
}

void AvgPool2d::forward_channel(std::span<const float* const> inputs,
                                const Shape& in, std::int64_t,
                                float* out) const {
    kernels::active().avg_pool2d(
        conv_geometry(1, in[2], in[3], kernel_, stride_, 0), inputs[0], out);
}

void AvgPool2d::backward(std::span<const Tensor* const> inputs, const Tensor&,
                         const Tensor& grad_out,
                         std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    grad_inputs[0].zero();
    const auto& d = x.shape().dims();
    const std::int64_t NC = d[0] * d[1], H = d[2], W = d[3];
    const std::int64_t OH = grad_out.shape()[2], OW = grad_out.shape()[3];
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
    for (std::int64_t p = 0; p < NC; ++p) {
        const float* go = grad_out.data() + static_cast<std::size_t>(p * OH * OW);
        float* gi = grad_inputs[0].data() + static_cast<std::size_t>(p * H * W);
        for (std::int64_t y = 0; y < OH; ++y)
            for (std::int64_t xx = 0; xx < OW; ++xx) {
                const float g = go[y * OW + xx] * inv;
                for (std::int64_t kh = 0; kh < kernel_; ++kh)
                    for (std::int64_t kw = 0; kw < kernel_; ++kw)
                        gi[(y * stride_ + kh) * W + (xx * stride_ + kw)] += g;
            }
    }
}

// -------------------------------------------------------------- MaxPool2d --

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
    if (kernel <= 0 || stride_ <= 0)
        throw std::invalid_argument("MaxPool2d: invalid geometry");
}

Shape MaxPool2d::output_shape(std::span<const Shape> inputs) const {
    const auto& in = require_nchw(inputs, "MaxPool2d");
    return Shape{in[0], in[1], conv_out_size(in[2], kernel_, stride_, 0),
                 conv_out_size(in[3], kernel_, stride_, 0)};
}

void MaxPool2d::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    const Shape os = output_shape(std::array{x.shape()});
    ensure_shape(out, os);
    const auto& d = x.shape().dims();
    const std::int64_t NC = d[0] * d[1], H = d[2], W = d[3];
    const std::int64_t OH = os[2], OW = os[3];
    for (std::int64_t p = 0; p < NC; ++p) {
        const float* src = x.data() + static_cast<std::size_t>(p * H * W);
        float* dst = out.data() + static_cast<std::size_t>(p * OH * OW);
        for (std::int64_t y = 0; y < OH; ++y)
            for (std::int64_t xx = 0; xx < OW; ++xx) {
                float best = -std::numeric_limits<float>::infinity();
                for (std::int64_t kh = 0; kh < kernel_; ++kh)
                    for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                        const float v =
                            src[(y * stride_ + kh) * W + (xx * stride_ + kw)];
                        if (v > best) best = v;
                    }
                dst[y * OW + xx] = best;
            }
    }
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
    return std::make_unique<MaxPool2d>(*this);
}

void MaxPool2d::backward(std::span<const Tensor* const> inputs,
                         const Tensor& output, const Tensor& grad_out,
                         std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    grad_inputs[0].zero();
    const auto& d = x.shape().dims();
    const std::int64_t NC = d[0] * d[1], H = d[2], W = d[3];
    const std::int64_t OH = output.shape()[2], OW = output.shape()[3];
    for (std::int64_t p = 0; p < NC; ++p) {
        const float* src = x.data() + static_cast<std::size_t>(p * H * W);
        const float* o = output.data() + static_cast<std::size_t>(p * OH * OW);
        const float* go = grad_out.data() + static_cast<std::size_t>(p * OH * OW);
        float* gi = grad_inputs[0].data() + static_cast<std::size_t>(p * H * W);
        for (std::int64_t y = 0; y < OH; ++y)
            for (std::int64_t xx = 0; xx < OW; ++xx) {
                const float target = o[y * OW + xx];
                const float g = go[y * OW + xx];
                // Route gradient to the first matching argmax element.
                bool routed = false;
                for (std::int64_t kh = 0; kh < kernel_ && !routed; ++kh)
                    for (std::int64_t kw = 0; kw < kernel_ && !routed; ++kw) {
                        const std::int64_t idx =
                            (y * stride_ + kh) * W + (xx * stride_ + kw);
                        if (src[idx] == target) {
                            gi[idx] += g;
                            routed = true;
                        }
                    }
            }
    }
}

// ---------------------------------------------------------- GlobalAvgPool --

Shape GlobalAvgPool::output_shape(std::span<const Shape> inputs) const {
    const auto& in = require_nchw(inputs, "GlobalAvgPool");
    return Shape{in[0], in[1]};
}

void GlobalAvgPool::forward(std::span<const Tensor* const> inputs,
                            Tensor& out) const {
    const Tensor& x = *inputs[0];
    const auto& d = x.shape().dims();
    ensure_shape(out, Shape{d[0], d[1]});
    kernels::active().global_avg_pool(static_cast<std::size_t>(d[0] * d[1]),
                                      static_cast<std::size_t>(d[2] * d[3]),
                                      x.data(), out.data());
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
    return std::make_unique<GlobalAvgPool>(*this);
}

void GlobalAvgPool::forward_channel(std::span<const float* const> inputs,
                                    const Shape& in, std::int64_t,
                                    float* out) const {
    kernels::active().global_avg_pool(
        1, static_cast<std::size_t>(in[2] * in[3]), inputs[0], out);
}

void GlobalAvgPool::backward(std::span<const Tensor* const> inputs, const Tensor&,
                             const Tensor& grad_out,
                             std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    const auto& d = x.shape().dims();
    const std::int64_t NC = d[0] * d[1];
    const std::size_t plane = static_cast<std::size_t>(d[2] * d[3]);
    const float inv = 1.0f / static_cast<float>(plane);
    for (std::int64_t p = 0; p < NC; ++p) {
        const float g = grad_out[static_cast<std::size_t>(p)] * inv;
        float* gi = grad_inputs[0].data() + static_cast<std::size_t>(p) * plane;
        for (std::size_t i = 0; i < plane; ++i) gi[i] = g;
    }
}

// ---------------------------------------------------------------- Flatten --

Shape Flatten::output_shape(std::span<const Shape> inputs) const {
    if (inputs.size() != 1)
        throw std::invalid_argument("Flatten: expects 1 input");
    const auto& in = inputs[0];
    if (in.rank() < 1) throw std::invalid_argument("Flatten: rank-0 input");
    std::int64_t rest = 1;
    for (std::size_t i = 1; i < in.rank(); ++i) rest *= in[i];
    return Shape{in[0], rest};
}

void Flatten::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    const Shape os = output_shape(std::array{x.shape()});
    ensure_shape(out, os);
    std::copy(x.data(), x.data() + x.numel(), out.data());
}

std::unique_ptr<Layer> Flatten::clone() const {
    return std::make_unique<Flatten>(*this);
}

void Flatten::backward(std::span<const Tensor* const> inputs, const Tensor&,
                       const Tensor& grad_out, std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    std::copy(grad_out.data(), grad_out.data() + grad_out.numel(),
              grad_inputs[0].data());
}

}  // namespace statfi::nn
