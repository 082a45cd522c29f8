#include "nn/layer.hpp"

namespace statfi::nn {

void ensure_shape(Tensor& t, const Shape& shape) {
    if (t.shape() != shape) t.resize(shape);
}

void Layer::backward(std::span<const Tensor* const>, const Tensor&,
                     const Tensor&, std::vector<Tensor>&) {
    throw std::logic_error("Layer '" + kind() + "' does not support backward()");
}

}  // namespace statfi::nn
