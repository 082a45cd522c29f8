#include "nn/activations.hpp"

#include <stdexcept>

#include "kernels/registry.hpp"

namespace statfi::nn {

namespace {
const Shape& single_input(std::span<const Shape> inputs, const char* who) {
    if (inputs.size() != 1)
        throw std::invalid_argument(std::string(who) + ": expects 1 input");
    return inputs[0];
}
}  // namespace

Shape ReLU::output_shape(std::span<const Shape> inputs) const {
    return single_input(inputs, "ReLU");
}

void ReLU::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    ensure_shape(out, x.shape());
    kernels::active().relu(x.data(), out.data(), x.numel());
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(*this); }

void ReLU::forward_channel(std::span<const float* const> inputs,
                           const Shape& in, std::int64_t, float* out) const {
    kernels::active().relu(inputs[0], out, channel_plane(in));
}

void ReLU::backward(std::span<const Tensor* const> inputs, const Tensor&,
                    const Tensor& grad_out, std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    const std::size_t n = x.numel();
    for (std::size_t i = 0; i < n; ++i)
        grad_inputs[0][i] = x[i] > 0.0f ? grad_out[i] : 0.0f;
}

Shape ReLU6::output_shape(std::span<const Shape> inputs) const {
    return single_input(inputs, "ReLU6");
}

void ReLU6::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    ensure_shape(out, x.shape());
    kernels::active().relu6(x.data(), out.data(), x.numel());
}

std::unique_ptr<Layer> ReLU6::clone() const {
    return std::make_unique<ReLU6>(*this);
}

void ReLU6::forward_channel(std::span<const float* const> inputs,
                            const Shape& in, std::int64_t, float* out) const {
    kernels::active().relu6(inputs[0], out, channel_plane(in));
}

void ReLU6::backward(std::span<const Tensor* const> inputs, const Tensor&,
                     const Tensor& grad_out, std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    const std::size_t n = x.numel();
    for (std::size_t i = 0; i < n; ++i)
        grad_inputs[0][i] = (x[i] > 0.0f && x[i] < 6.0f) ? grad_out[i] : 0.0f;
}

}  // namespace statfi::nn
