#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace statfi::nn {

namespace {
/// One channel plane of the folded transform; forward() and
/// forward_channel() share it, so a plane is the same floats either way.
void affine_plane(const float* src, float* dst, std::size_t n, float s,
                  float b) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = s * src[i] + b;
}
}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps)
    : channels_(channels),
      eps_(eps),
      scale_(Shape{channels}, 1.0f),
      shift_(Shape{channels}, 0.0f) {
    if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels <= 0");
}

Shape BatchNorm2d::output_shape(std::span<const Shape> inputs) const {
    if (inputs.size() != 1)
        throw std::invalid_argument("BatchNorm2d: expects 1 input");
    if (inputs[0].rank() != 4 || inputs[0][1] != channels_)
        throw std::invalid_argument("BatchNorm2d: bad input shape " +
                                    inputs[0].to_string());
    return inputs[0];
}

void BatchNorm2d::forward(std::span<const Tensor* const> inputs,
                          Tensor& out) const {
    const Tensor& x = *inputs[0];
    ensure_shape(out, output_shape(std::array{x.shape()}));
    const auto& d = x.shape().dims();
    const std::int64_t N = d[0], C = d[1];
    const std::size_t plane = static_cast<std::size_t>(d[2] * d[3]);
    for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t c = 0; c < C; ++c)
            affine_plane(x.data() + static_cast<std::size_t>(n * C + c) * plane,
                         out.data() + static_cast<std::size_t>(n * C + c) * plane,
                         plane, scale_[static_cast<std::size_t>(c)],
                         shift_[static_cast<std::size_t>(c)]);
}

void BatchNorm2d::forward_channel(std::span<const float* const> inputs,
                                  const Shape& in, std::int64_t c,
                                  float* out) const {
    affine_plane(inputs[0], out, static_cast<std::size_t>(in[2] * in[3]),
                 scale_[static_cast<std::size_t>(c)],
                 shift_[static_cast<std::size_t>(c)]);
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
    return std::make_unique<BatchNorm2d>(*this);
}

void BatchNorm2d::set_statistics(const Tensor& gamma, const Tensor& beta,
                                 const Tensor& running_mean,
                                 const Tensor& running_var) {
    const auto C = static_cast<std::size_t>(channels_);
    if (gamma.numel() != C || beta.numel() != C || running_mean.numel() != C ||
        running_var.numel() != C)
        throw std::invalid_argument("BatchNorm2d::set_statistics: size mismatch");
    for (std::size_t c = 0; c < C; ++c) {
        const float inv_std = 1.0f / std::sqrt(running_var[c] + eps_);
        scale_[c] = gamma[c] * inv_std;
        shift_[c] = beta[c] - running_mean[c] * gamma[c] * inv_std;
    }
}

}  // namespace statfi::nn
