#pragma once
// Dense float32 tensor — the storage substrate of the inference engine and
// the surface the fault injector corrupts. Weights live in Tensor objects;
// a fault is a bit manipulation of one float in `data()`.
//
// Layout is always contiguous row-major; 4-D activations use NCHW. The class
// is deliberately minimal: the inference engine needs shape bookkeeping and
// raw access, not a full einsum library.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace statfi {

/// Tensor shape: up to rank 4 in practice (NCHW), arbitrary in principle.
class Shape {
public:
    Shape() = default;
    Shape(std::initializer_list<std::int64_t> dims);
    explicit Shape(std::vector<std::int64_t> dims);

    [[nodiscard]] std::size_t rank() const noexcept { return dims_.size(); }
    [[nodiscard]] std::int64_t dim(std::size_t i) const;
    [[nodiscard]] std::int64_t operator[](std::size_t i) const { return dim(i); }
    /// Total element count (1 for rank-0).
    [[nodiscard]] std::size_t numel() const noexcept;
    [[nodiscard]] const std::vector<std::int64_t>& dims() const noexcept {
        return dims_;
    }
    [[nodiscard]] bool operator==(const Shape& other) const noexcept = default;
    [[nodiscard]] std::string to_string() const;

private:
    std::vector<std::int64_t> dims_;
};

/// Contiguous row-major float32 tensor with value semantics.
class Tensor {
public:
    Tensor() = default;
    explicit Tensor(Shape shape, float fill = 0.0f);

    [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
    [[nodiscard]] std::size_t numel() const noexcept { return data_.size(); }
    /// Elements the allocation holds (>= numel()); what the tensor costs in
    /// memory once resize() has shrunk it.
    [[nodiscard]] std::size_t capacity() const noexcept {
        return data_.capacity();
    }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Take shape @p shape, keeping the allocation whenever it holds
    /// shape.numel() elements; past it, reallocate to exactly that many.
    /// Element values are unspecified afterwards, fresh or kept, except
    /// that a shrink keeps the leading shape.numel() values.
    void resize(Shape shape);

    [[nodiscard]] float* data() noexcept { return data_.data(); }
    [[nodiscard]] const float* data() const noexcept { return data_.data(); }
    [[nodiscard]] std::span<float> span() noexcept { return data_; }
    [[nodiscard]] std::span<const float> span() const noexcept { return data_; }

    /// Flat element access (bounds-checked in debug builds only).
    float& operator[](std::size_t i) noexcept { return data_[i]; }
    float operator[](std::size_t i) const noexcept { return data_[i]; }

    /// NCHW accessors for rank-4 tensors.
    [[nodiscard]] float& at4(std::int64_t n, std::int64_t c, std::int64_t h,
                             std::int64_t w);
    [[nodiscard]] float at4(std::int64_t n, std::int64_t c, std::int64_t h,
                            std::int64_t w) const;
    /// (N, F) accessor for rank-2 tensors.
    [[nodiscard]] float& at2(std::int64_t n, std::int64_t f);
    [[nodiscard]] float at2(std::int64_t n, std::int64_t f) const;

    void fill(float value) noexcept;
    void zero() noexcept { fill(0.0f); }

    /// Reinterpret as a new shape with identical numel.
    [[nodiscard]] Tensor reshaped(Shape new_shape) const;

    /// Copy of row @p n along the leading (batch) dimension as a
    /// (1, rest...) tensor. Splits a batched activation back into the
    /// per-image views the fault executors early-exit over.
    [[nodiscard]] Tensor slice_row(std::int64_t n) const;

    /// Elementwise helpers used by layers and tests.
    Tensor& add_(const Tensor& other);
    Tensor& scale_(float factor) noexcept;

    [[nodiscard]] float max_abs() const noexcept;
    [[nodiscard]] double sum() const noexcept;

    /// True if every element is finite (no NaN/Inf) — fault campaigns use
    /// this to detect numerically exploded activations.
    [[nodiscard]] bool all_finite() const noexcept;

private:
    Shape shape_;
    std::vector<float> data_;
};

}  // namespace statfi
