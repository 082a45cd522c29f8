#include "core/classification_core.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "io/checksum.hpp"
#include "kernels/registry.hpp"

namespace statfi::core {

GoldenCache build_golden_cache(const nn::Network& net,
                               const data::Dataset& eval) {
    const std::int64_t count = eval.size();
    if (count == 0)
        throw std::invalid_argument(
            "ClassificationCore: empty evaluation set");
    GoldenCache golden;
    golden.labels = eval.labels;

    // One batched pass over the whole eval tensor, then split each node's
    // (N, ...) output back into per-image rows. Every layer computes batch
    // rows independently, so the rows are bit-identical to N single-image
    // passes — while the batched pass amortizes per-call overhead and
    // im2col/workspace setup N-fold.
    std::vector<Tensor> batched;
    net.forward_all(eval.images, batched);

    // Node by node, each batched output freed once split (moved whole when
    // it is a single image's), so set-up never holds two copies of the
    // golden activations.
    const auto images = static_cast<std::size_t>(count);
    golden.acts.assign(images, std::vector<Tensor>(batched.size()));
    for (std::size_t node = 0; node < batched.size(); ++node) {
        Tensor& out = batched[node];
        for (std::size_t i = 0; i < images; ++i)
            golden.acts[i][node] =
                images == 1 ? std::move(out)
                            : out.slice_row(static_cast<std::int64_t>(i));
        out = Tensor{};
    }

    golden.images.reserve(images);
    golden.preds.resize(images);
    for (std::size_t i = 0; i < images; ++i) {
        golden.images.push_back(eval.image(static_cast<std::int64_t>(i)));
        golden.preds[i] = nn::argmax_row(golden.acts[i].back(), 0);
        if (golden.preds[i] == golden.labels[i]) ++golden.correct;
    }
    golden.accuracy =
        static_cast<double>(golden.correct) / static_cast<double>(count);

    golden.correct_order.resize(static_cast<std::size_t>(count));
    std::iota(golden.correct_order.begin(), golden.correct_order.end(), 0);
    std::stable_partition(golden.correct_order.begin(),
                          golden.correct_order.end(), [&](std::size_t i) {
                              return golden.preds[i] == golden.labels[i];
                          });
    return golden;
}

namespace {
/// Resolve the mitigation config against the graph and deploy it: clip
/// rules install a node hook clamping protected outputs, so every forward
/// pass from here on (the golden pass included) runs the hardened network.
fault::ResolvedMitigation deploy_mitigation(
    const fault::MitigationConfig& config, nn::Network& net) {
    auto resolved = fault::resolve_mitigation(config, net);
    if (resolved.any_clip) {
        net.set_node_hook(
            [clips = resolved.node_clips](int id, Tensor& out) {
                const auto& range = clips[static_cast<std::size_t>(id)];
                if (!range) return;
                // NaN passes through (clamp circuits bound magnitude, they
                // do not repair invalid encodings) — a contract every
                // kernel backend honors bit-for-bit.
                kernels::active().clamp(out.data(), out.numel(),
                                        range->first, range->second);
            });
    }
    return resolved;
}
}  // namespace

ClassificationCore::ClassificationCore(nn::Network& net,
                                       const data::Dataset& eval,
                                       ExecutorConfig config)
    : net_(&net), config_(std::move(config)),
      mitigation_(deploy_mitigation(config_.mitigation, net)),
      injector_(net, config_.dtype, config_.layer_quant),
      golden_(build_golden_cache(net, eval)) {
    // Precompute, for every potential dirty node d, which golden entries
    // the ensemble suffix forward_from(d + 1) dereferences: producers
    // p < d read by some node > d (the frontier d itself is built fresh
    // each step), plus whether any suffix node reads the network input.
    const int n = net_->node_count();
    ensemble_golden_.resize(static_cast<std::size_t>(n));
    row_cache_.assign(static_cast<std::size_t>(n),
                      std::vector<Tensor>(golden_.images.size()));
    suffix_deps_.resize(static_cast<std::size_t>(n));
    suffix_needs_input_.assign(static_cast<std::size_t>(n), 0);
    std::vector<char> used;
    for (int d = 0; d < n; ++d) {
        used.assign(static_cast<std::size_t>(n), 0);
        bool needs_input = false;
        for (int q = d + 1; q < n; ++q)
            for (int in : net_->node_inputs(q)) {
                if (in == nn::Network::kInputId)
                    needs_input = true;
                else if (in < d)
                    used[static_cast<std::size_t>(in)] = 1;
            }
        for (int p = 0; p < d; ++p)
            if (used[static_cast<std::size_t>(p)])
                suffix_deps_[static_cast<std::size_t>(d)].push_back(p);
        suffix_needs_input_[static_cast<std::size_t>(d)] = needs_input ? 1 : 0;
    }
    // A suffix segment from node k runs to the first cut at or after k
    // that a weight layer (conv, linear) follows. A lane golden at a cut
    // is golden at every later one, so checking only there still retires
    // every rejoin before the next layer where the suffix spends its time,
    // without a compare after each cheap node (BN, activation, pooling,
    // Add) in between. Which cuts are checked never changes an outcome.
    segment_end_.resize(static_cast<std::size_t>(n));
    int end = n - 1;
    for (int k = n - 1; k >= 0; --k) {
        if (k + 1 < n && net_->next_cut(k) == k &&
            net_->layer(k + 1).has_injectable_weight())
            end = k;
        segment_end_[static_cast<std::size_t>(k)] = end;
    }
}

namespace {
/// Top-1 prediction of one lane of a lane-stacked (F, classes) logits
/// tensor; -1 when the winning logit is not finite (a numerically exploded
/// network counts as a misprediction).
int predict_row(const Tensor& logits, std::int64_t row) {
    const int best = nn::argmax_row(logits, row);
    const float v = logits[static_cast<std::size_t>(
        row * logits.shape()[1] + best)];
    if (!std::isfinite(v)) return -1;
    return best;
}

/// The single-image verdict both fault families share: does a lane that
/// predicts @p prediction on image @p i trip @p policy? AnyMisprediction
/// needs a golden-correct image turned wrong; the other policies any change
/// of the golden top-1 — for AccuracyDrop that is the verdict on an
/// activation fault's single inference (weight lanes count AccuracyDrop
/// hits across images instead).
bool trips(ClassificationPolicy policy, const GoldenCache& golden,
           std::size_t i, int prediction) {
    if (policy == ClassificationPolicy::AnyMisprediction)
        return golden.preds[i] == golden.labels[i] &&
               prediction != golden.labels[i];
    return prediction != golden.preds[i];
}

/// @p src's shape with the leading (batch) dimension replaced by @p lanes.
Shape lane_shape(const Shape& src, std::size_t lanes) {
    std::vector<std::int64_t> dims = src.dims();
    dims.at(0) = static_cast<std::int64_t>(lanes);
    return Shape(std::move(dims));
}

/// Replicate a batch-1 tensor into @p lanes batch rows of @p dst.
void stack_lanes(const Tensor& src, std::size_t lanes, Tensor& dst) {
    nn::ensure_shape(dst, lane_shape(src.shape(), lanes));
    const std::size_t sz = src.numel();
    for (std::size_t l = 0; l < lanes; ++l)
        std::memcpy(dst.data() + l * sz, src.data(), sz * sizeof(float));
}
}  // namespace

// ------------------------------------------- fault-batched group evaluation

void ClassificationCore::evaluate_group(std::span<const fault::Fault> faults,
                                        FaultOutcome* out) {
    if (faults.empty()) return;
    for (const auto& f : faults)
        if (f.layer != faults.front().layer ||
            !fault::same_ensemble_family(f.model, faults.front().model))
            throw std::invalid_argument(
                "ClassificationCore::evaluate_group: faults must share one "
                "layer and one ensemble family (weight models may mix; "
                "activation faults group only with activation faults)");

    using clock = std::chrono::steady_clock;
    const std::uint64_t inferences_before = inferences_;
    const std::uint64_t retired_before = retired_;
    const auto t0 = telemetry_ ? clock::now() : clock::time_point{};
    if (faults.front().model == fault::FaultModel::ActivationFlip)
        evaluate_activation_group(faults, out);
    else
        evaluate_weight_group(faults, out);
    if (!telemetry_) return;

    const auto t1 = clock::now();
    auto& reg = telemetry_->metrics();
    const telemetry::MetricIds& ids = telemetry_->ids();
    // Group-granularity accounting: the blocked pass interleaves injection,
    // forward, and restore per lane, so the whole pass is booked as forward
    // time and evaluate_seconds observes one sample per group.
    reg.inc(worker_, ids.forward_ns_total,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
    reg.inc(worker_, ids.faults_total, faults.size());
    std::uint64_t masked = 0, critical = 0;
    for (std::size_t f = 0; f < faults.size(); ++f) {
        masked += out[f] == FaultOutcome::Masked ? 1 : 0;
        critical += out[f] == FaultOutcome::Critical ? 1 : 0;
    }
    if (masked) reg.inc(worker_, ids.masked_total, masked);
    if (critical) reg.inc(worker_, ids.critical_total, critical);
    reg.inc(worker_, ids.inferences_total, inferences_ - inferences_before);
    reg.inc(worker_, ids.lanes_retired_total, retired_ - retired_before);
    reg.observe(worker_, ids.evaluate_seconds,
                std::chrono::duration<double>(t1 - t0).count());
}

void ClassificationCore::lend_step_buffers(int node) {
    if (node == lent_to_) return;
    // Buffer 0 is the frontier's, buffer 1 + k the k-th dependency's.
    const auto swap_entries = [this](int d) {
        const auto& deps = suffix_deps_[static_cast<std::size_t>(d)];
        for (std::size_t k = 0; k <= deps.size(); ++k) {
            const int entry = k == 0 ? d : deps[k - 1];
            std::swap(step_buffers_[k],
                      ensemble_golden_[static_cast<std::size_t>(entry)]);
        }
    };
    if (lent_to_ >= 0) swap_entries(lent_to_);
    step_buffers_.resize(std::max(
        step_buffers_.size(),
        1 + suffix_deps_[static_cast<std::size_t>(node)].size()));
    swap_entries(node);
    lent_to_ = node;
}

void ClassificationCore::ensemble_weight_step(
    std::span<const fault::Fault> faults, int node, std::size_t image) {
    const std::size_t F = active_.size();
    const auto d = static_cast<std::size_t>(node);
    const nn::Layer& layer = net_->layer(node);
    const auto& acts = golden_.acts[image];

    lane_inputs_.clear();
    for (int in : net_->node_inputs(node))
        lane_inputs_.push_back(in == nn::Network::kInputId
                                   ? &golden_.images[image]
                                   : &acts[static_cast<std::size_t>(in)]);
    const std::span<const Tensor* const> inputs(lane_inputs_.data(),
                                                lane_inputs_.size());

    // Frontier: per lane, the golden node output with only the output row
    // its corrupted weight word feeds recomputed under that lane's fault,
    // then clamped as the clip hook clamps a full recompute. The other rows
    // do not depend on the corrupted word, so they are byte-identical to a
    // full faulty recompute, and a lane whose row is golden again retires
    // here: its dependencies are golden too, so nothing live differs.
    const Tensor& gact = acts[d];
    const std::size_t lane_sz = gact.numel();
    const std::size_t row_sz =
        lane_sz / static_cast<std::size_t>(gact.shape()[1]);
    const auto& clip = mitigation_.node_clips[d];
    const int golden_prediction = predict_row(acts.back(), 0);
    Tensor& frontier = ensemble_golden_[d];
    nn::ensure_shape(frontier, lane_shape(gact.shape(), F));
    lane_images_.assign(F, image);
    lane_preds_.resize(F);
    running_.clear();
    for (std::size_t l = 0; l < F; ++l) {
        const fault::Fault& fault = faults[active_[l]];
        nn::ensure_shape(lane_buf_, gact.shape());
        std::memcpy(lane_buf_.data(), gact.data(), lane_sz * sizeof(float));
        {
            fault::WeightInjector::Scoped guard(injector_, fault);
            layer.forward_row_cached(inputs, fault.weight_index,
                                     row_cache_[d][image], lane_buf_);
        }
        // A layer without row updates recomputes the whole output.
        const std::int64_t row = layer.row_of_weight(fault.weight_index);
        const std::size_t begin =
            row < 0 ? 0 : static_cast<std::size_t>(row) * row_sz;
        const std::size_t count = row < 0 ? lane_sz : row_sz;
        if (clip)
            kernels::active().clamp(lane_buf_.data() + begin, count,
                                    clip->first, clip->second);
        if (std::memcmp(lane_buf_.data() + begin, gact.data() + begin,
                        count * sizeof(float)) == 0) {
            lane_preds_[l] = golden_prediction;
            ++retired_;
            continue;
        }
        std::memcpy(frontier.data() + running_.size() * lane_sz,
                    lane_buf_.data(), lane_sz * sizeof(float));
        running_.push_back(l);
    }
    const std::size_t R = running_.size();
    if (R == 0) return;
    if (R < F) nn::ensure_shape(frontier, lane_shape(gact.shape(), R));
    for (int p : suffix_deps_[d])
        stack_lanes(acts[static_cast<std::size_t>(p)], R,
                    ensemble_golden_[static_cast<std::size_t>(p)]);
    if (suffix_needs_input_[d])
        stack_lanes(golden_.images[image], R, ensemble_input_);
    run_suffix(node);
}

void ClassificationCore::retire_golden_rows(Tensor& out, int node) {
    const std::size_t lanes = running_.size();
    const std::size_t sz = out.numel() / lanes;
    std::size_t w = 0;
    for (std::size_t r = 0; r < lanes; ++r) {
        const std::size_t lane = running_[r];
        const auto& acts = golden_.acts[lane_images_[lane]];
        const float* row = out.data() + r * sz;
        if (std::memcmp(row, acts[static_cast<std::size_t>(node)].data(),
                        sz * sizeof(float)) == 0) {
            lane_preds_[lane] = predict_row(acts.back(), 0);
            ++retired_;
            continue;
        }
        if (w != r)
            std::memcpy(out.data() + w * sz, row, sz * sizeof(float));
        running_[w++] = lane;
    }
    if (w == lanes) return;
    running_.resize(w);
    nn::ensure_shape(out, lane_shape(out.shape(), w));  // keeps rows 0..w-1
}

void ClassificationCore::run_suffix(int node) {
    const int n = net_->node_count();
    const Tensor* out = &ensemble_golden_[static_cast<std::size_t>(node)];
    int at = node;     // the node whose output *out is
    int lent = -1;     // the cut ensemble_golden_ lends the running segment
    while (at + 1 < n) {
        const int cut = segment_end_[static_cast<std::size_t>(at + 1)];
        out = &net_->forward_from(at + 1, ensemble_input_, ensemble_golden_,
                                  ensemble_scratch_, cut);
        if (lent >= 0)
            std::swap(ensemble_golden_[static_cast<std::size_t>(lent)],
                      cut_spare_);
        at = cut;
        if (at + 1 == n) break;  // *out is the logits
        Tensor& cut_out = ensemble_scratch_[static_cast<std::size_t>(
            out - ensemble_scratch_.data())];
        retire_golden_rows(cut_out, cut);
        if (running_.empty()) break;
        // Hand the cut's output to the next segment as its golden entry;
        // the spare keeps the pool slot allocated meanwhile.
        std::swap(ensemble_golden_[static_cast<std::size_t>(cut)], cut_out);
        std::swap(cut_out, cut_spare_);
        lent = cut;
    }
    for (std::size_t r = 0; r < running_.size(); ++r)
        lane_preds_[running_[r]] =
            predict_row(*out, static_cast<std::int64_t>(r));
}

void ClassificationCore::evaluate_weight_group(
    std::span<const fault::Fault> faults, FaultOutcome* out) {
    // Masked / TMR-outvoted lanes are decided without inference.
    active_.clear();
    for (std::size_t f = 0; f < faults.size(); ++f) {
        if (mitigation_.tmr_protects(faults[f].layer) ||
            injector_.masked(faults[f]))
            out[f] = FaultOutcome::Masked;
        else
            active_.push_back(f);
    }

    const int node = injector_.node_of_layer(faults.front().layer);
    lend_step_buffers(node);
    const std::size_t count = golden_.images.size();
    const ClassificationPolicy policy = config_.policy;
    // AnyMisprediction visits the golden-correct images first and stops at
    // the incorrect tail, where no lane can trip; the other policies visit
    // every image in index order.
    const bool correct_first = policy == ClassificationPolicy::AnyMisprediction;
    const double threshold =
        config_.accuracy_drop_threshold * static_cast<double>(count);
    lane_correct_.assign(active_.size(), 0);
    // inferences_ advances by the live lane count per image: a lane decided
    // at image k consumed exactly images 0..k of the order.
    for (std::size_t k = 0; k < count && !active_.empty(); ++k) {
        const std::size_t i = correct_first ? golden_.correct_order[k] : k;
        if (correct_first && golden_.preds[i] != golden_.labels[i]) break;
        ensemble_weight_step(faults, node, i);
        inferences_ += active_.size();
        std::size_t w = 0;
        for (std::size_t l = 0; l < active_.size(); ++l) {
            const int prediction = lane_preds_[l];
            bool critical;
            if (policy == ClassificationPolicy::AccuracyDrop) {
                // Critical once the drop is unavoidable: even with every
                // remaining image correct, it exceeds the threshold. On the
                // last image this is the final drop itself.
                if (prediction == golden_.labels[i]) ++lane_correct_[l];
                const double best_case =
                    static_cast<double>(golden_.correct) -
                    static_cast<double>(lane_correct_[l] + (count - 1 - k));
                critical = best_case > threshold;
            } else {
                critical = trips(policy, golden_, i, prediction);
            }
            if (critical) {
                out[active_[l]] = FaultOutcome::Critical;
            } else {
                active_[w] = active_[l];
                lane_correct_[w] = lane_correct_[l];
                ++w;
            }
        }
        active_.resize(w);
        lane_correct_.resize(w);
    }
    for (const std::size_t f : active_) out[f] = FaultOutcome::NonCritical;
}

void ClassificationCore::evaluate_activation_group(
    std::span<const fault::Fault> faults, FaultOutcome* out) {
    const std::size_t F = faults.size();
    const std::size_t images = golden_.images.size();
    const int node = faults.front().layer;
    const auto d = static_cast<std::size_t>(node);

    // Each lane's target image is a pure function of its fault (see
    // evaluate_group), so lanes in one group generally corrupt DIFFERENT
    // images: suffix dependencies and the input are gathered per lane
    // rather than replicated, and a lane's rows are compared against its
    // own image's golden activations.
    lane_images_.resize(F);
    lane_preds_.resize(F);
    running_.resize(F);
    std::iota(running_.begin(), running_.end(), std::size_t{0});
    const Tensor& shape_ref = golden_.acts[0].at(d);  // range-checks node
    lend_step_buffers(node);
    const std::size_t lane_sz = shape_ref.numel();
    Tensor& frontier = ensemble_golden_[d];
    nn::ensure_shape(frontier, lane_shape(shape_ref.shape(), F));
    for (std::size_t l = 0; l < F; ++l) {
        const fault::Fault& fault = faults[l];
        const auto i = static_cast<std::size_t>(
            (fault.weight_index + static_cast<std::uint64_t>(fault.bit)) %
            images);
        lane_images_[l] = i;
        const Tensor& act = golden_.acts[i][d];
        if (fault.weight_index >= static_cast<std::uint64_t>(act.numel()))
            throw std::out_of_range(
                "ClassificationCore: activation element index out of range");
        // Lane = post-hook golden activation with one element flipped. No
        // re-clamp: the fault strikes the node's (already clipped) output,
        // and only the nodes after it re-run. The flipped element always
        // differs, so no lane retires here, only at the suffix's cuts.
        float* lane = frontier.data() + l * lane_sz;
        std::memcpy(lane, act.data(), lane_sz * sizeof(float));
        const auto element = static_cast<std::size_t>(fault.weight_index);
        lane[element] =
            fault::apply_bit_flip(lane[element], fault.bit, config_.dtype);
    }

    for (int p : suffix_deps_[d]) {
        const auto ps = static_cast<std::size_t>(p);
        const Tensor& ref = golden_.acts[0][ps];
        const std::size_t sz = ref.numel();
        Tensor& dst = ensemble_golden_[ps];
        nn::ensure_shape(dst, lane_shape(ref.shape(), F));
        for (std::size_t l = 0; l < F; ++l)
            std::memcpy(dst.data() + l * sz,
                        golden_.acts[lane_images_[l]][ps].data(),
                        sz * sizeof(float));
    }
    if (suffix_needs_input_[d]) {
        const std::size_t sz = golden_.images[0].numel();
        nn::ensure_shape(ensemble_input_,
                         lane_shape(golden_.images[0].shape(), F));
        for (std::size_t l = 0; l < F; ++l)
            std::memcpy(ensemble_input_.data() + l * sz,
                        golden_.images[lane_images_[l]].data(),
                        sz * sizeof(float));
    }

    run_suffix(node);
    inferences_ += F;

    for (std::size_t l = 0; l < F; ++l)
        out[l] = trips(config_.policy, golden_, lane_images_[l],
                       lane_preds_[l])
                     ? FaultOutcome::Critical
                     : FaultOutcome::NonCritical;
}

std::size_t ClassificationCore::ensemble_bytes() const noexcept {
    std::size_t floats = lane_buf_.capacity() + ensemble_input_.capacity() +
                         cut_spare_.capacity();
    for (const auto& t : ensemble_golden_) floats += t.capacity();
    for (const auto& t : step_buffers_) floats += t.capacity();
    for (const auto& t : ensemble_scratch_) floats += t.capacity();
    for (const auto& per_node : row_cache_)
        for (const auto& t : per_node) floats += t.capacity();
    return floats * sizeof(float);
}

CampaignFingerprint ClassificationCore::fingerprint(
    const fault::FaultUniverse& universe, std::string model_id) const {
    CampaignFingerprint fp;
    fp.model_id = std::move(model_id);
    fp.universe_size = universe.total();
    fp.dtype = static_cast<std::uint8_t>(config_.dtype);
    fp.policy = static_cast<std::uint8_t>(config_.policy);
    fp.accuracy_drop_threshold = config_.accuracy_drop_threshold;

    io::Crc32 eval;
    for (const auto& image : golden_.images)
        eval.update(image.data(), image.numel() * sizeof(float));
    for (const int label : golden_.labels) eval.update(&label, sizeof(label));
    fp.eval_hash = eval.value();

    io::Crc32 weights;
    for (const auto& ref : net_->weight_layers())
        weights.update(ref.weight->data(), ref.weight->numel() * sizeof(float));
    fp.weights_hash = weights.value();

    fp.fault_model = static_cast<std::uint8_t>(universe.kind());
    fp.mbu_k = static_cast<std::uint8_t>(universe.mbu_k());
    fp.mitigation_hash = config_.mitigation.descriptor_hash();
    return fp;
}

}  // namespace statfi::core
