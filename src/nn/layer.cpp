#include "nn/layer.hpp"

namespace statfi::nn {

void ensure_shape(Tensor& t, const Shape& shape) {
    if (t.shape() != shape) t.resize(shape);
}

std::size_t channel_plane(const Shape& s) {
    return s.numel() / static_cast<std::size_t>(s[0] * s[1]);
}

void Layer::forward_channel(std::span<const float* const>, const Shape&,
                            std::int64_t, float*) const {
    throw std::logic_error("Layer '" + kind() + "' is not channel-local");
}

void Layer::backward(std::span<const Tensor* const>, const Tensor&,
                     const Tensor&, std::vector<Tensor>&) {
    throw std::logic_error("Layer '" + kind() + "' does not support backward()");
}

}  // namespace statfi::nn
