#pragma once
// Network: a DAG of layers executed in topological order.
//
// Construction order IS topological order: add() only accepts inputs with
// smaller node ids (or kInputId for the network input), so no separate
// sorting/cycle detection is needed and "recompute nodes >= k" is a correct
// downstream re-execution set.
//
// Two execution modes matter for fault injection:
//  * forward_all(): computes and keeps every node output (the golden
//    activation cache for a batch of images);
//  * forward_from(k): recomputes only nodes >= k, reading the golden cache
//    for anything older — a permanent fault in node k's weights cannot
//    change nodes < k, which is what makes exhaustive campaigns tractable.
//    The classification core calls it with F faults stacked as lanes in the
//    batch dimension (the fault-batched ensemble forward); every layer
//    computes batch rows independently, so the lanes are bit-identical to F
//    single-fault passes. Its outputs share a few pooled buffers, reused
//    once each node's last consumer has run, so its footprint is what is
//    live at once rather than the whole graph. It can stop at any node
//    (`last`); stopped at a cut (next_cut), the rest of the forward
//    needs nothing but that node's output.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace statfi::nn {

class Network {
public:
    /// Pseudo node id denoting the network's input tensor.
    static constexpr int kInputId = -1;

    Network() = default;
    Network(Network&&) noexcept = default;
    Network& operator=(Network&&) noexcept = default;
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Append a node consuming the given producer ids. Returns its node id.
    /// @throws std::invalid_argument if any input id >= the new node's id.
    int add(std::string name, std::unique_ptr<Layer> layer,
            std::vector<int> inputs);

    /// Append a node consuming the previously added node (or the network
    /// input when the graph is empty).
    int add(std::string name, std::unique_ptr<Layer> layer);

    [[nodiscard]] int node_count() const noexcept {
        return static_cast<int>(nodes_.size());
    }
    [[nodiscard]] Layer& layer(int id) { return *nodes_.at(checked(id)).layer; }
    [[nodiscard]] const Layer& layer(int id) const {
        return *nodes_.at(checked(id)).layer;
    }
    [[nodiscard]] const std::string& node_name(int id) const {
        return nodes_.at(checked(id)).name;
    }
    [[nodiscard]] const std::vector<int>& node_inputs(int id) const {
        return nodes_.at(checked(id)).inputs;
    }

    /// Shape-check the whole graph for a given input shape; returns one
    /// output shape per node. Throws with the offending node's name.
    [[nodiscard]] std::vector<Shape> infer_shapes(const Shape& input_shape) const;

    /// Full forward pass; returns the last node's output.
    [[nodiscard]] Tensor forward(const Tensor& input) const;

    /// Full forward pass keeping every node output in @p activations
    /// (resized to node_count()).
    void forward_all(const Tensor& input, std::vector<Tensor>& activations) const;

    /// Partial re-execution: recompute nodes @p first_dirty .. @p last
    /// (-1: the final node) using @p golden for older inputs, and return
    /// last's output (golden[last] when first_dirty is past it). Only the
    /// golden entries the recomputed nodes read need to hold data. @p input
    /// and those entries may carry any batch size, one lane per stacked
    /// fault. Running [a, c] and then [c + 1, end] with only c's output
    /// carried over in golden[c] equals running [a, end] when c is a cut
    /// (next_cut); elsewhere the second run also reads older entries.
    ///
    /// @p scratch is a buffer pool, not a per-node cache: a recomputed
    /// output takes a free slot and gives it back once its last consumer
    /// has run, so the pool grows only to the liveness peak of the nodes
    /// run, and its buffers keep their allocations across calls (grow-only;
    /// see ensure_shape). Entries do not map to nodes, and only the
    /// returned tensor is meaningful. It is an entry of @p scratch, which
    /// the caller may take (e.g. by swap), and stays valid until the next
    /// call with the same pool.
    /// @throws std::out_of_range if @p last is not a node id or -1.
    const Tensor& forward_from(int first_dirty, const Tensor& input,
                               const std::vector<Tensor>& golden,
                               std::vector<Tensor>& scratch,
                               int last = -1) const;

    /// The first cut at or after node @p first. Node c is a cut when no
    /// node after c reads the network input or any output older than c's
    /// own: c's output is then the only activation the rest of the graph
    /// needs, so a forward can stop at c and resume from it alone. Every
    /// node of a chain is a cut; in a residual block the nodes between the
    /// block input and the Add reading it are not. The final node always
    /// is.
    /// @throws std::out_of_range if @p first is not a node id.
    [[nodiscard]] int next_cut(int first) const;

    /// Where a difference confined to one channel of node d's output stays
    /// in that channel: the nodes after d, in id order, that read d or an
    /// earlier region node and are channel-local (Layer::channel_local),
    /// up to the first such reader that is not, @p resume. Until resume,
    /// each dirty output differs from golden in that channel alone.
    struct ChannelRegion {
        std::vector<int> nodes;  ///< region nodes, ascending
        int resume = -1;         ///< -1 when the region runs to the end
    };
    /// The channel region of node @p d (see ChannelRegion).
    /// @throws std::out_of_range if @p d is not a node id.
    [[nodiscard]] ChannelRegion channel_region(int d) const;

    /// Deep copy (layers cloned). Used to give campaign workers private
    /// weight storage. The node hook is not copied.
    [[nodiscard]] Network clone() const;

    /// Optional hook run on each node's output right after it is computed,
    /// in both forward_all() and forward_from() (mitigation clipping). The
    /// hook is part of the deployed network: golden passes see it too.
    using NodeHook = std::function<void(int node_id, Tensor& output)>;
    void set_node_hook(NodeHook hook) { node_hook_ = std::move(hook); }

    // -- fault-injection surface ------------------------------------------

    /// One entry per layer owning an injectable weight tensor, in graph
    /// order. This ordering defines the paper's "layer index" (ResNet-20:
    /// 0 = first conv, 19 = FC).
    struct WeightLayerRef {
        int node_id = 0;
        std::string name;
        Tensor* weight = nullptr;
    };
    [[nodiscard]] std::vector<WeightLayerRef> weight_layers();

    /// Total injectable weight count (sum over weight_layers()).
    [[nodiscard]] std::uint64_t total_weight_count() const;

    // -- training surface ---------------------------------------------------

    [[nodiscard]] std::vector<ParamRef> params();
    void zero_grad();

    /// Reverse-mode pass: with @p activations from forward_all() on
    /// @p input, propagate @p grad_output (gradient w.r.t. the last node)
    /// and accumulate parameter gradients. Every layer on a gradient path
    /// must support backward().
    void backward(const Tensor& input, const std::vector<Tensor>& activations,
                  const Tensor& grad_output);

private:
    struct Node {
        std::string name;
        std::unique_ptr<Layer> layer;
        std::vector<int> inputs;
        /// Largest id of a node reading this one (set by add()); -1 while
        /// nothing does. forward_from frees the output's slot after it.
        int last_consumer = -1;
    };

    [[nodiscard]] std::size_t checked(int id) const;
    void gather_inputs(int id, const Tensor& input,
                       const std::vector<Tensor>& outputs,
                       std::vector<const Tensor*>& ptrs) const;

    std::vector<Node> nodes_;
    NodeHook node_hook_;
};

/// Index of the maximum logit in row @p n of a (N, F) tensor.
int argmax_row(const Tensor& logits, std::int64_t n);

}  // namespace statfi::nn
