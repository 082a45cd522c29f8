#pragma once
// Layer abstraction of the inference engine.
//
// Layers are value-ish objects owned by a Network. They compute forward
// passes into caller-provided output tensors (so campaign executors can
// reuse buffers), optionally expose an injectable weight tensor (conv / FC
// weights — the fault targets of the paper) with forward_row_cached(), the
// one-slice recompute that builds each fault's ensemble lane, carry a lane
// one channel at a time where they are channel-local (forward_channel),
// resume a lane that differs in one input channel (forward_resume), and
// optionally support backward passes for the built-in SGD trainer.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace statfi::nn {

/// A (value, gradient) pair for one trainable parameter tensor.
struct ParamRef {
    Tensor* value = nullptr;
    Tensor* grad = nullptr;
};

/// Gives @p t shape @p shape (Tensor::resize): the allocation is kept
/// whenever it fits and grows exactly otherwise, so a buffer reused across
/// shapes stops allocating once it has held the largest. Element values are
/// unspecified after a shape change, except that a shrink keeps the leading
/// ones (the ensemble drops retired lanes that way); every other caller
/// writes all of them or zeroes explicitly.
void ensure_shape(Tensor& t, const Shape& shape);

/// Floats in one channel plane of a tensor of shape @p s (N, C, ...):
/// numel / (N * C), so one for an (N, C) tensor.
[[nodiscard]] std::size_t channel_plane(const Shape& s);

/// One row of a lane-stacked input to Layer::forward_resume: the golden
/// input (batch 1) the row equals everywhere except in input channel
/// @p channel.
struct ResumeLane {
    const Tensor* golden = nullptr;
    std::int64_t channel = 0;
};

class Layer {
public:
    virtual ~Layer() = default;

    /// Short kind tag, e.g. "conv2d", "linear", "relu".
    [[nodiscard]] virtual std::string kind() const = 0;

    /// Output shape for the given input shapes; throws on mismatch.
    [[nodiscard]] virtual Shape output_shape(
        std::span<const Shape> inputs) const = 0;

    /// Forward pass. @p inputs are the producing nodes' outputs in graph
    /// order; @p out is resized as needed.
    virtual void forward(std::span<const Tensor* const> inputs,
                         Tensor& out) const = 0;

    /// Deep copy (used to give each campaign worker a private network).
    [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

    // -- fault-injection surface ------------------------------------------

    /// True if this layer owns an injectable weight tensor (conv/FC weight).
    /// BatchNorm parameters and biases are *not* injectable, matching the
    /// paper's fault model (static conv+FC weights only).
    [[nodiscard]] virtual bool has_injectable_weight() const { return false; }
    [[nodiscard]] virtual Tensor* injectable_weight() { return nullptr; }
    [[nodiscard]] virtual const Tensor* injectable_weight() const {
        return nullptr;
    }

    /// True if forward_row_cached() recomputes less than the full output.
    /// The key observation behind the fault-batched ensemble forward: one
    /// corrupted weight word affects exactly one output slice (conv: the
    /// output channel Cout the word belongs to; linear: one output
    /// feature), so a single-word fault needs only that slice recomputed —
    /// the remaining rows are byte-identical to the golden output.
    [[nodiscard]] virtual bool supports_row_update() const { return false; }

    /// The output slice index a fault at flat weight word @p weight_index
    /// affects (conv: output channel; linear: output feature). -1 when the
    /// layer has no row-update support.
    [[nodiscard]] virtual std::int64_t row_of_weight(
        std::uint64_t weight_index) const {
        (void)weight_index;
        return -1;
    }

    /// Recompute only the output slice affected by weight word
    /// @p weight_index, in the exact arithmetic order forward() uses for
    /// that slice. @p out must have this layer's output shape for
    /// @p inputs; only that slice is written, every other one is left as
    /// it was (holding the full output, @p out becomes the faulty forward's
    /// output). A layer may stash
    /// input-derived scratch in @p cache and reuse it on later calls with
    /// the SAME inputs — a conv caches its im2col matrix here, which the
    /// fault-batched ensemble would otherwise rebuild per lane from an
    /// input that never changes (the golden activation). The caller owns
    /// one cache per (layer, input) pair and must reset it (Tensor{})
    /// whenever the inputs change. The default ignores the cache and
    /// recomputes everything — correct for any layer, just without the
    /// speedup.
    virtual void forward_row_cached(std::span<const Tensor* const> inputs,
                                    std::uint64_t weight_index, Tensor& cache,
                                    Tensor& out) const {
        (void)weight_index;
        (void)cache;
        forward(inputs, out);
    }

    // -- channel-local propagation ------------------------------------------

    /// True when output channel c depends only on channel c of each input
    /// (BatchNorm2d, ReLU, ReLU6, AvgPool2d, GlobalAvgPool, DepthwiseConv2d,
    /// Add, PadShortcut). A difference confined to one channel stays in it
    /// through such a layer, so the ensemble carries a lane there as one
    /// plane per node (Network::channel_region).
    [[nodiscard]] virtual bool channel_local() const { return false; }

    /// Channel @p c of forward() for one image: @p inputs holds channel c of
    /// each input (one plane each), @p in is input 0's shape (batch 1), and
    /// @p out receives channel c of the output — the floats forward()
    /// writes there, bit for bit. A plane is numel / shape[1] floats (one
    /// float for an (N, C) tensor).
    /// @throws std::logic_error unless channel_local().
    virtual void forward_channel(std::span<const float* const> inputs,
                                 const Shape& in, std::int64_t c,
                                 float* out) const;

    /// forward() over a lane-stacked @p inputs whose row r equals
    /// lanes[r].golden except in input channel lanes[r].channel, the rows
    /// that share a golden input adjacent and in ascending channel. The
    /// default runs forward(). Conv2d resumes each row from the golden
    /// partial sums over the input channels before its own, advanced once
    /// per golden input.
    virtual void forward_resume(std::span<const Tensor* const> inputs,
                                std::span<const ResumeLane> lanes,
                                Tensor& out) const {
        (void)lanes;
        forward(inputs, out);
    }

    // -- training surface --------------------------------------------------

    [[nodiscard]] virtual bool supports_backward() const { return false; }

    /// Backward pass: given the forward inputs, the produced output, and the
    /// gradient w.r.t. the output, fill @p grad_inputs (one tensor per
    /// input, same shapes as the inputs) and accumulate parameter gradients
    /// internally. Default: unsupported.
    virtual void backward(std::span<const Tensor* const> inputs,
                          const Tensor& output, const Tensor& grad_out,
                          std::vector<Tensor>& grad_inputs);

    /// Trainable parameters with their gradient buffers (empty by default).
    [[nodiscard]] virtual std::vector<ParamRef> params() { return {}; }

    /// Zero all parameter gradients.
    virtual void zero_grad() {}
};

}  // namespace statfi::nn
