#pragma once
// ScratchArena: a grow-only float workspace for kernel-sized temporaries
// (conv2d_range's im2col rows on the generic backend, its zero-bordered
// input copy on AVX2; depthwise_conv2d's zero-bordered plane on AVX2).
// Campaign hot loops run ~10^5 forwards per layer; the arena guarantees
// that after a warm-up pass at the largest shapes in play, no further
// forward allocates — the invariant
// ClassificationCore's "never allocate in the hot loop" performance model
// rests on. Each campaign worker owns private layer clones (and therefore
// private arenas), so arenas are single-threaded by construction.

#include <cstddef>
#include <vector>

namespace statfi::kernels {

class ScratchArena {
public:
    /// A buffer of at least @p n floats, valid until the next floats()
    /// call. Grow-only: the capacity is the maximum ever requested, so
    /// alternating callers (batch-N forward_all vs batch-1 forward_from)
    /// never cause reallocation once both have run.
    [[nodiscard]] float* floats(std::size_t n) {
        if (buf_.size() < n) buf_.resize(n);
        return buf_.data();
    }

    /// Current workspace footprint — observable, so tests can assert the
    /// no-growth-after-warm-up invariant.
    [[nodiscard]] std::size_t bytes() const noexcept {
        return buf_.size() * sizeof(float);
    }

private:
    std::vector<float> buf_;
};

}  // namespace statfi::kernels
