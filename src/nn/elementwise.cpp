#include "nn/elementwise.hpp"

#include <cmath>
#include <stdexcept>

#include "kernels/registry.hpp"

namespace statfi::nn {

// -------------------------------------------------------------------- Add --

Shape Add::output_shape(std::span<const Shape> inputs) const {
    if (inputs.size() != 2) throw std::invalid_argument("Add: expects 2 inputs");
    if (!(inputs[0] == inputs[1]))
        throw std::invalid_argument("Add: shape mismatch " + inputs[0].to_string() +
                                    " vs " + inputs[1].to_string());
    return inputs[0];
}

void Add::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& a = *inputs[0];
    const Tensor& b = *inputs[1];
    ensure_shape(out, output_shape(std::array{a.shape(), b.shape()}));
    kernels::active().add(a.data(), b.data(), out.data(), a.numel());
}

std::unique_ptr<Layer> Add::clone() const { return std::make_unique<Add>(*this); }

void Add::forward_channel(std::span<const float* const> inputs,
                          const Shape& in, std::int64_t, float* out) const {
    kernels::active().add(inputs[0], inputs[1], out, channel_plane(in));
}

void Add::backward(std::span<const Tensor* const> inputs, const Tensor&,
                   const Tensor& grad_out, std::vector<Tensor>& grad_inputs) {
    grad_inputs.resize(2);
    for (int k = 0; k < 2; ++k) {
        ensure_shape(grad_inputs[static_cast<std::size_t>(k)],
                     inputs[static_cast<std::size_t>(k)]->shape());
        std::copy(grad_out.data(), grad_out.data() + grad_out.numel(),
                  grad_inputs[static_cast<std::size_t>(k)].data());
    }
}

// ------------------------------------------------------------ PadShortcut --

PadShortcut::PadShortcut(std::int64_t in_channels, std::int64_t out_channels,
                         std::int64_t stride)
    : in_channels_(in_channels), out_channels_(out_channels), stride_(stride) {
    if (in_channels <= 0 || out_channels < in_channels || stride <= 0)
        throw std::invalid_argument("PadShortcut: invalid geometry");
}

Shape PadShortcut::output_shape(std::span<const Shape> inputs) const {
    if (inputs.size() != 1)
        throw std::invalid_argument("PadShortcut: expects 1 input");
    const auto& in = inputs[0];
    if (in.rank() != 4 || in[1] != in_channels_)
        throw std::invalid_argument("PadShortcut: bad input " + in.to_string());
    return Shape{in[0], out_channels_, (in[2] + stride_ - 1) / stride_,
                 (in[3] + stride_ - 1) / stride_};
}

void PadShortcut::forward(std::span<const Tensor* const> inputs,
                          Tensor& out) const {
    const Tensor& x = *inputs[0];
    const Shape os = output_shape(std::array{x.shape()});
    ensure_shape(out, os);
    out.zero();
    const auto& d = x.shape().dims();
    const std::int64_t N = d[0], H = d[2], W = d[3];
    const std::int64_t OH = os[2], OW = os[3];
    for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t c = 0; c < in_channels_; ++c) {
            const float* src =
                x.data() + static_cast<std::size_t>((n * in_channels_ + c) * H * W);
            const float* planes[] = {src};
            forward_channel(planes, x.shape(), c,
                            out.data() + static_cast<std::size_t>(
                                             (n * out_channels_ + c) * OH * OW));
        }
}

void PadShortcut::forward_channel(std::span<const float* const> inputs,
                                  const Shape& in, std::int64_t,
                                  float* out) const {
    const std::int64_t W = in[3];
    const std::int64_t OH = (in[2] + stride_ - 1) / stride_;
    const std::int64_t OW = (W + stride_ - 1) / stride_;
    const float* src = inputs[0];
    for (std::int64_t y = 0; y < OH; ++y)
        for (std::int64_t xx = 0; xx < OW; ++xx)
            out[y * OW + xx] = src[(y * stride_) * W + (xx * stride_)];
}

std::unique_ptr<Layer> PadShortcut::clone() const {
    return std::make_unique<PadShortcut>(*this);
}

void PadShortcut::backward(std::span<const Tensor* const> inputs, const Tensor&,
                           const Tensor& grad_out,
                           std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    grad_inputs[0].zero();
    const auto& d = x.shape().dims();
    const std::int64_t N = d[0], H = d[2], W = d[3];
    const std::int64_t OH = grad_out.shape()[2], OW = grad_out.shape()[3];
    for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t c = 0; c < in_channels_; ++c) {
            float* gi = grad_inputs[0].data() +
                        static_cast<std::size_t>((n * in_channels_ + c) * H * W);
            const float* go = grad_out.data() + static_cast<std::size_t>(
                                                    (n * out_channels_ + c) * OH * OW);
            for (std::int64_t y = 0; y < OH; ++y)
                for (std::int64_t xx = 0; xx < OW; ++xx)
                    gi[(y * stride_) * W + (xx * stride_)] = go[y * OW + xx];
        }
}

// ---------------------------------------------------------------- Softmax --

Shape Softmax::output_shape(std::span<const Shape> inputs) const {
    if (inputs.size() != 1)
        throw std::invalid_argument("Softmax: expects 1 input");
    if (inputs[0].rank() != 2)
        throw std::invalid_argument("Softmax: expects (N, F) input");
    return inputs[0];
}

void Softmax::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    ensure_shape(out, x.shape());
    const std::int64_t N = x.shape()[0], F = x.shape()[1];
    for (std::int64_t n = 0; n < N; ++n) {
        const float* row = x.data() + static_cast<std::size_t>(n * F);
        float* dst = out.data() + static_cast<std::size_t>(n * F);
        float mx = row[0];
        for (std::int64_t f = 1; f < F; ++f) mx = std::max(mx, row[f]);
        float denom = 0.0f;
        for (std::int64_t f = 0; f < F; ++f) {
            dst[f] = std::exp(row[f] - mx);
            denom += dst[f];
        }
        const float inv = 1.0f / denom;
        for (std::int64_t f = 0; f < F; ++f) dst[f] *= inv;
    }
}

std::unique_ptr<Layer> Softmax::clone() const {
    return std::make_unique<Softmax>(*this);
}

}  // namespace statfi::nn
