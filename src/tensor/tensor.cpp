#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace statfi {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
    for (auto d : dims_)
        if (d < 0) throw std::invalid_argument("Shape: negative dimension");
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
    for (auto d : dims_)
        if (d < 0) throw std::invalid_argument("Shape: negative dimension");
}

std::int64_t Shape::dim(std::size_t i) const {
    if (i >= dims_.size()) throw std::out_of_range("Shape::dim: index out of range");
    return dims_[i];
}

std::size_t Shape::numel() const noexcept {
    std::size_t n = 1;
    for (auto d : dims_) n *= static_cast<std::size_t>(d);
    return n;
}

std::string Shape::to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (i) s += ", ";
        s += std::to_string(dims_[i]);
    }
    s += "]";
    return s;
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_.numel(), fill) {}

float& Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h,
                   std::int64_t w) {
    const auto& d = shape_.dims();
    if (d.size() != 4) throw std::logic_error("Tensor::at4 on non-rank-4 tensor");
    return data_[static_cast<std::size_t>(((n * d[1] + c) * d[2] + h) * d[3] + w)];
}

float Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) const {
    return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

float& Tensor::at2(std::int64_t n, std::int64_t f) {
    const auto& d = shape_.dims();
    if (d.size() != 2) throw std::logic_error("Tensor::at2 on non-rank-2 tensor");
    return data_[static_cast<std::size_t>(n * d[1] + f)];
}

float Tensor::at2(std::int64_t n, std::int64_t f) const {
    return const_cast<Tensor*>(this)->at2(n, f);
}

void Tensor::resize(Shape shape) {
    const std::size_t n = shape.numel();
    // Grow exactly (std::vector's own growth may double the allocation),
    // freeing the old allocation first so nothing is copied.
    if (n > data_.capacity()) {
        decltype(data_)().swap(data_);
        data_.reserve(n);
    }
    data_.resize(n);
    shape_ = std::move(shape);
}

void Tensor::fill(float value) noexcept {
    std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::reshaped(Shape new_shape) const {
    if (new_shape.numel() != numel())
        throw std::invalid_argument("Tensor::reshaped: numel mismatch (" +
                                    shape_.to_string() + " -> " +
                                    new_shape.to_string() + ")");
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.data_ = data_;
    return t;
}

Tensor Tensor::slice_row(std::int64_t n) const {
    if (shape_.rank() == 0)
        throw std::invalid_argument("Tensor::slice_row: rank-0 tensor");
    const std::int64_t rows = shape_[0];
    if (n < 0 || n >= rows)
        throw std::out_of_range("Tensor::slice_row: row " + std::to_string(n) +
                                " out of " + std::to_string(rows));
    std::vector<std::int64_t> dims = shape_.dims();
    dims[0] = 1;
    Tensor t{Shape(std::move(dims))};
    const std::size_t stride = t.numel();
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(
                                    stride * static_cast<std::size_t>(n)),
                stride, t.data_.begin());
    return t;
}

Tensor& Tensor::add_(const Tensor& other) {
    if (other.numel() != numel())
        throw std::invalid_argument("Tensor::add_: numel mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

Tensor& Tensor::scale_(float factor) noexcept {
    for (auto& x : data_) x *= factor;
    return *this;
}

float Tensor::max_abs() const noexcept {
    float m = 0.0f;
    for (float x : data_) m = std::max(m, std::fabs(x));
    return m;
}

double Tensor::sum() const noexcept {
    double acc = 0.0;
    for (float x : data_) acc += x;
    return acc;
}

bool Tensor::all_finite() const noexcept {
    for (float x : data_)
        if (!std::isfinite(x)) return false;
    return true;
}

}  // namespace statfi
