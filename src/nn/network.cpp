#include "nn/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace statfi::nn {

int Network::add(std::string name, std::unique_ptr<Layer> layer,
                 std::vector<int> inputs) {
    if (!layer) throw std::invalid_argument("Network::add: null layer");
    const int id = node_count();
    for (int in : inputs)
        if (in != kInputId && (in < 0 || in >= id))
            throw std::invalid_argument(
                "Network::add: node '" + name +
                "' references invalid input id " + std::to_string(in));
    for (int in : inputs)
        if (in != kInputId)
            nodes_[static_cast<std::size_t>(in)].last_consumer = id;
    nodes_.push_back(Node{std::move(name), std::move(layer), std::move(inputs)});
    return id;
}

int Network::add(std::string name, std::unique_ptr<Layer> layer) {
    const int prev = nodes_.empty() ? kInputId : node_count() - 1;
    return add(std::move(name), std::move(layer), std::vector<int>{prev});
}

std::size_t Network::checked(int id) const {
    if (id < 0 || id >= node_count())
        throw std::out_of_range("Network: node id " + std::to_string(id) +
                                " out of range");
    return static_cast<std::size_t>(id);
}

std::vector<Shape> Network::infer_shapes(const Shape& input_shape) const {
    std::vector<Shape> shapes;
    shapes.reserve(nodes_.size());
    std::vector<Shape> in_shapes;
    for (const auto& node : nodes_) {
        in_shapes.clear();
        for (int in : node.inputs)
            in_shapes.push_back(in == kInputId ? input_shape
                                               : shapes[static_cast<std::size_t>(in)]);
        try {
            shapes.push_back(node.layer->output_shape(in_shapes));
        } catch (const std::exception& e) {
            throw std::invalid_argument("Network: shape error at node '" +
                                        node.name + "': " + e.what());
        }
    }
    return shapes;
}

void Network::gather_inputs(int id, const Tensor& input,
                            const std::vector<Tensor>& outputs,
                            std::vector<const Tensor*>& ptrs) const {
    const auto& node = nodes_[static_cast<std::size_t>(id)];
    ptrs.clear();
    for (int in : node.inputs)
        ptrs.push_back(in == kInputId ? &input
                                      : &outputs[static_cast<std::size_t>(in)]);
}

Tensor Network::forward(const Tensor& input) const {
    std::vector<Tensor> acts;
    forward_all(input, acts);
    if (acts.empty()) return input;
    return std::move(acts.back());
}

void Network::forward_all(const Tensor& input,
                          std::vector<Tensor>& activations) const {
    activations.resize(nodes_.size());
    std::vector<const Tensor*> ptrs;
    for (int id = 0; id < node_count(); ++id) {
        gather_inputs(id, input, activations, ptrs);
        nodes_[static_cast<std::size_t>(id)].layer->forward(
            ptrs, activations[static_cast<std::size_t>(id)]);
        if (node_hook_) node_hook_(id, activations[static_cast<std::size_t>(id)]);
    }
}

int Network::next_cut(int first) const {
    (void)checked(first);
    // Walk back from the end, keeping the lowest id (the input's is -1)
    // any node after c reads: c is a cut when that is c or later.
    int cut = node_count() - 1;
    int lowest = node_count();
    for (int c = node_count() - 1; c >= first; --c) {
        if (lowest >= c) cut = c;
        for (int in : nodes_[static_cast<std::size_t>(c)].inputs)
            lowest = std::min(lowest, in);
    }
    return cut;
}

Network::ChannelRegion Network::channel_region(int d) const {
    std::vector<char> dirty(nodes_.size(), 0);
    dirty[checked(d)] = 1;
    ChannelRegion region;
    for (int id = d + 1; id < node_count(); ++id) {
        const Node& node = nodes_[static_cast<std::size_t>(id)];
        if (std::none_of(node.inputs.begin(), node.inputs.end(), [&](int in) {
                return in != kInputId && dirty[static_cast<std::size_t>(in)];
            }))
            continue;
        if (!node.layer->channel_local()) {
            region.resume = id;
            break;
        }
        region.nodes.push_back(id);
        dirty[static_cast<std::size_t>(id)] = 1;
    }
    return region;
}

const Tensor& Network::forward_from(int first_dirty, const Tensor& input,
                                    const std::vector<Tensor>& golden,
                                    std::vector<Tensor>& scratch,
                                    int last) const {
    if (golden.size() != nodes_.size())
        throw std::invalid_argument("Network::forward_from: golden cache size "
                                    "mismatch");
    if (nodes_.empty()) return input;
    if (last == -1) last = node_count() - 1;
    (void)checked(last);
    if (first_dirty < 0) first_dirty = 0;
    if (first_dirty > last) return golden[static_cast<std::size_t>(last)];

    // Node id's output lives in pool slot slot[id - first_dirty] from when
    // it is computed until its last consumer has run; then the slot goes on
    // a LIFO free stack, so the next node writes into the buffer that is
    // still warm in cache. The bookkeeping is kept per thread, so a call
    // allocates nothing once the longest run has been seen: the ensemble
    // calls this once per suffix segment, often for a single node.
    const auto first = static_cast<std::size_t>(first_dirty);
    thread_local std::vector<std::size_t> slot, free_slots;
    thread_local std::vector<const Tensor*> ptrs;
    slot.assign(static_cast<std::size_t>(last) + 1 - first, 0);
    free_slots.clear();
    std::size_t used = 0;
    for (int id = first_dirty; id <= last; ++id) {
        const auto& node = nodes_[static_cast<std::size_t>(id)];
        // The output slot is taken before any input pointer, since growing
        // the pool moves its tensors, and before any input is released, so
        // an output never aliases an input.
        std::size_t out;
        if (free_slots.empty()) {
            out = used++;
            if (scratch.size() < used) scratch.resize(used);
        } else {
            out = free_slots.back();
            free_slots.pop_back();
        }
        slot[static_cast<std::size_t>(id) - first] = out;
        ptrs.clear();
        for (int in : node.inputs) {
            if (in == kInputId)
                ptrs.push_back(&input);
            else if (in < first_dirty)
                ptrs.push_back(&golden[static_cast<std::size_t>(in)]);
            else
                ptrs.push_back(
                    &scratch[slot[static_cast<std::size_t>(in) - first]]);
        }
        node.layer->forward(ptrs, scratch[out]);
        if (node_hook_) node_hook_(id, scratch[out]);

        for (auto in = node.inputs.begin(); in != node.inputs.end(); ++in) {
            const auto p = static_cast<std::size_t>(*in);
            if (*in >= first_dirty && nodes_[p].last_consumer == id &&
                std::find(node.inputs.begin(), in, *in) == in)
                free_slots.push_back(slot[p - first]);
        }
        // An output nothing reads is free at once; last's is the result.
        if (node.last_consumer < 0 && id < last) free_slots.push_back(out);
    }
    return scratch[slot.back()];
}

Network Network::clone() const {
    Network copy;
    copy.nodes_.reserve(nodes_.size());
    for (const auto& node : nodes_)
        copy.nodes_.push_back(Node{node.name, node.layer->clone(), node.inputs,
                                   node.last_consumer});
    return copy;
}

std::vector<Network::WeightLayerRef> Network::weight_layers() {
    std::vector<WeightLayerRef> refs;
    for (int id = 0; id < node_count(); ++id) {
        auto& node = nodes_[static_cast<std::size_t>(id)];
        if (node.layer->has_injectable_weight())
            refs.push_back(WeightLayerRef{id, node.name,
                                          node.layer->injectable_weight()});
    }
    return refs;
}

std::uint64_t Network::total_weight_count() const {
    std::uint64_t total = 0;
    for (const auto& node : nodes_)
        if (node.layer->has_injectable_weight())
            total += node.layer->injectable_weight()->numel();
    return total;
}

std::vector<ParamRef> Network::params() {
    std::vector<ParamRef> all;
    for (auto& node : nodes_)
        for (auto& p : node.layer->params()) all.push_back(p);
    return all;
}

void Network::zero_grad() {
    for (auto& node : nodes_) node.layer->zero_grad();
}

void Network::backward(const Tensor& input,
                       const std::vector<Tensor>& activations,
                       const Tensor& grad_output) {
    if (activations.size() != nodes_.size())
        throw std::invalid_argument("Network::backward: activation cache size "
                                    "mismatch");
    if (nodes_.empty()) return;

    std::vector<std::optional<Tensor>> grads(nodes_.size());
    grads.back() = grad_output;

    std::vector<const Tensor*> ptrs;
    std::vector<Tensor> grad_inputs;
    for (int id = node_count() - 1; id >= 0; --id) {
        auto& slot = grads[static_cast<std::size_t>(id)];
        if (!slot.has_value()) continue;  // node not on any gradient path
        auto& node = nodes_[static_cast<std::size_t>(id)];
        gather_inputs(id, input, activations, ptrs);
        grad_inputs.clear();
        node.layer->backward(ptrs, activations[static_cast<std::size_t>(id)],
                             *slot, grad_inputs);
        if (grad_inputs.size() != node.inputs.size())
            throw std::logic_error("Network::backward: layer '" + node.name +
                                   "' returned wrong grad_inputs count");
        for (std::size_t k = 0; k < node.inputs.size(); ++k) {
            const int producer = node.inputs[k];
            if (producer == kInputId) continue;  // input gradient unused
            auto& dst = grads[static_cast<std::size_t>(producer)];
            if (!dst.has_value())
                dst = std::move(grad_inputs[k]);
            else
                dst->add_(grad_inputs[k]);
        }
        slot.reset();  // free as soon as consumed
    }
}

int argmax_row(const Tensor& logits, std::int64_t n) {
    const std::int64_t F = logits.shape()[1];
    const float* row = logits.data() + static_cast<std::size_t>(n * F);
    int best = 0;
    for (std::int64_t f = 1; f < F; ++f)
        if (row[f] > row[best]) best = static_cast<int>(f);
    return best;
}

}  // namespace statfi::nn
