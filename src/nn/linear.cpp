#include "nn/linear.hpp"

#include <stdexcept>

namespace statfi::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias),
      weight_(Shape{out_features, in_features}),
      bias_(with_bias ? Tensor(Shape{out_features}) : Tensor()),
      weight_grad_(Shape{out_features, in_features}),
      bias_grad_(with_bias ? Tensor(Shape{out_features}) : Tensor()) {
    if (in_features <= 0 || out_features <= 0)
        throw std::invalid_argument("Linear: invalid feature counts");
}

Shape Linear::output_shape(std::span<const Shape> inputs) const {
    if (inputs.size() != 1)
        throw std::invalid_argument("Linear: expects 1 input");
    if (inputs[0].rank() != 2 || inputs[0][1] != in_features_)
        throw std::invalid_argument("Linear: expects (N, " +
                                    std::to_string(in_features_) + ") input, got " +
                                    inputs[0].to_string());
    return Shape{inputs[0][0], out_features_};
}

float Linear::feature(const float* xr, std::int64_t o) const {
    const float* wr = weight_.data() + static_cast<std::size_t>(o * in_features_);
    float acc = with_bias_ ? bias_[static_cast<std::size_t>(o)] : 0.0f;
    for (std::int64_t i = 0; i < in_features_; ++i) acc += xr[i] * wr[i];
    return acc;
}

void Linear::forward(std::span<const Tensor* const> inputs, Tensor& out) const {
    const Tensor& x = *inputs[0];
    const Shape out_shape = output_shape(std::array{x.shape()});
    ensure_shape(out, out_shape);
    const auto N = static_cast<std::size_t>(x.shape()[0]);
    // Y[N, out] = X[N, in] * W[out, in]^T
    for (std::size_t n = 0; n < N; ++n) {
        const float* xr = x.data() + n * static_cast<std::size_t>(in_features_);
        float* yr = out.data() + n * static_cast<std::size_t>(out_features_);
        for (std::int64_t o = 0; o < out_features_; ++o) yr[o] = feature(xr, o);
    }
}

void Linear::forward_row_cached(std::span<const Tensor* const> inputs,
                                std::uint64_t weight_index, Tensor&,
                                Tensor& out) const {
    const Tensor& x = *inputs[0];
    const Shape out_shape = output_shape(std::array{x.shape()});
    ensure_shape(out, out_shape);
    const auto N = static_cast<std::size_t>(x.shape()[0]);
    const std::int64_t o = row_of_weight(weight_index);
    for (std::size_t n = 0; n < N; ++n)
        out[n * static_cast<std::size_t>(out_features_) +
            static_cast<std::size_t>(o)] =
            feature(x.data() + n * static_cast<std::size_t>(in_features_), o);
}

std::unique_ptr<Layer> Linear::clone() const {
    return std::make_unique<Linear>(*this);
}

void Linear::backward(std::span<const Tensor* const> inputs, const Tensor&,
                      const Tensor& grad_out, std::vector<Tensor>& grad_inputs) {
    const Tensor& x = *inputs[0];
    const auto N = static_cast<std::size_t>(x.shape()[0]);
    grad_inputs.resize(1);
    ensure_shape(grad_inputs[0], x.shape());
    grad_inputs[0].zero();

    // dW[out, in] += dY[N, out]^T * X[N, in]; dX[N, in] += dY[N, out] * W.
    for (std::size_t n = 0; n < N; ++n) {
        const float* xr = x.data() + n * static_cast<std::size_t>(in_features_);
        const float* gy =
            grad_out.data() + n * static_cast<std::size_t>(out_features_);
        float* gx =
            grad_inputs[0].data() + n * static_cast<std::size_t>(in_features_);
        for (std::int64_t o = 0; o < out_features_; ++o) {
            const float g = gy[o];
            if (g == 0.0f) continue;
            float* wg =
                weight_grad_.data() + static_cast<std::size_t>(o * in_features_);
            const float* wr =
                weight_.data() + static_cast<std::size_t>(o * in_features_);
            for (std::int64_t i = 0; i < in_features_; ++i) {
                wg[i] += g * xr[i];
                gx[i] += g * wr[i];
            }
            if (with_bias_) bias_grad_[static_cast<std::size_t>(o)] += g;
        }
    }
}

std::vector<ParamRef> Linear::params() {
    std::vector<ParamRef> ps{ParamRef{&weight_, &weight_grad_}};
    if (with_bias_) ps.push_back(ParamRef{&bias_, &bias_grad_});
    return ps;
}

void Linear::zero_grad() {
    weight_grad_.zero();
    if (with_bias_) bias_grad_.zero();
}

}  // namespace statfi::nn
