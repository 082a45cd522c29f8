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
    const int n = net_->node_count();
    const auto un = static_cast<std::size_t>(n);
    for (const auto& ref : net_->weight_layers())
        if (!net_->layer(ref.node_id).supports_row_update())
            throw std::invalid_argument("ClassificationCore: weight layer '" +
                                        ref.name + "' has no row updates");
    ensemble_golden_.resize(un);
    row_cache_.assign(un, std::vector<Tensor>(golden_.images.size()));
    // For every node t: the producers p < t some node > t reads (the
    // golden entries forward_from(t + 1) dereferences besides t itself),
    // whether a node > t reads the network input, and each node's last
    // reader.
    std::vector<std::vector<int>> suffix_deps(un);
    std::vector<char> suffix_needs_input(un, 0);
    std::vector<int> last_reader(un, -1);
    for (int q = 0; q < n; ++q)
        for (int in : net_->node_inputs(q))
            if (in != nn::Network::kInputId)
                last_reader[static_cast<std::size_t>(in)] = q;
    for (int t = 0; t < n; ++t) {
        const auto ut = static_cast<std::size_t>(t);
        for (int p = 0; p < t; ++p)
            if (last_reader[static_cast<std::size_t>(p)] > t)
                suffix_deps[ut].push_back(p);
        for (int q = t + 1; q < n; ++q)
            for (int in : net_->node_inputs(q))
                if (in == nn::Network::kInputId) suffix_needs_input[ut] = 1;
    }
    // Each node's channel region, the planes a lane carries through it,
    // where they are compared, and the entries a step materializes.
    regions_.resize(un);
    for (int d = 0; d < n; ++d) {
        Region& region = regions_[static_cast<std::size_t>(d)];
        const nn::Network::ChannelRegion walk = net_->channel_region(d);
        region.dirty.push_back(d);
        region.dirty.insert(region.dirty.end(), walk.nodes.begin(),
                            walk.nodes.end());
        for (std::size_t k = 0; k < region.dirty.size(); ++k) {
            const int node = region.dirty[k];
            region.offset.push_back(region.lane_floats);
            region.lane_floats += nn::channel_plane(golden_of(0, node).shape());
            bool only_live = node < n - 1;
            for (std::size_t j = 0; j < k; ++j)
                only_live = only_live &&
                            last_reader[static_cast<std::size_t>(
                                region.dirty[j])] <= node;
            region.checked.push_back(only_live ? 1 : 0);
        }
        region.resume = walk.resume;
        const int t = walk.resume;
        std::vector<int>& entries = region.entries;
        if (t < 0) {
            entries.push_back(n - 1);
            continue;
        }
        const auto add = [&entries](int e) {
            if (e != nn::Network::kInputId &&
                std::find(entries.begin(), entries.end(), e) == entries.end())
                entries.push_back(e);
        };
        for (int in : net_->node_inputs(t)) {
            add(in);
            if (in == nn::Network::kInputId) region.needs_input = true;
        }
        for (int p : suffix_deps[static_cast<std::size_t>(t)]) add(p);
        if (suffix_needs_input[static_cast<std::size_t>(t)])
            region.needs_input = true;
        // Largest first: step buffer k is lent to every node's k-th entry,
        // so it grows only to the largest k-th entry of any node.
        std::stable_sort(entries.begin(), entries.end(), [this](int a, int b) {
            return golden_of(0, a).numel() > golden_of(0, b).numel();
        });
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
    // Buffer k is the k-th entry's.
    const auto swap_entries = [this](int d) {
        const auto& entries = regions_[static_cast<std::size_t>(d)].entries;
        for (std::size_t k = 0; k < entries.size(); ++k)
            std::swap(step_buffers_[k],
                      ensemble_golden_[static_cast<std::size_t>(entries[k])]);
    };
    if (lent_to_ >= 0) swap_entries(lent_to_);
    step_buffers_.resize(
        std::max(step_buffers_.size(),
                 regions_[static_cast<std::size_t>(node)].entries.size()));
    swap_entries(node);
    lent_to_ = node;
}

const Tensor& ClassificationCore::golden_of(std::size_t image,
                                            int node) const {
    return node == nn::Network::kInputId
               ? golden_.images[image]
               : golden_.acts[image][static_cast<std::size_t>(node)];
}

template <class Frontier>
void ClassificationCore::run_lanes(int node, Frontier&& frontier) {
    const Region& region = regions_[static_cast<std::size_t>(node)];
    const auto& dirty = region.dirty;
    const std::size_t F = running_.size();
    lane_preds_.resize(F);
    // (image, channel) order: a resumed conv advances one golden running
    // sum per image through the lanes' channels.
    std::sort(running_.begin(), running_.end(),
              [this](std::size_t a, std::size_t b) {
                  return std::pair(lane_images_[a], lane_channels_[a]) <
                         std::pair(lane_images_[b], lane_channels_[b]);
              });
    nn::ensure_shape(lane_planes_,
                     Shape{static_cast<std::int64_t>(region.lane_floats)});
    float* planes = lane_planes_.data();
    // Entries are materialized row by row as lanes survive, then trimmed.
    for (const int e : region.entries)
        nn::ensure_shape(ensemble_golden_[static_cast<std::size_t>(e)],
                         lane_shape(golden_of(0, e).shape(), F));
    if (region.needs_input)
        nn::ensure_shape(ensemble_input_,
                         lane_shape(golden_.images[0].shape(), F));

    // Where node @p id is among dirty[0, below): below when it is not.
    const auto dirty_index = [&dirty](int id, std::size_t below) {
        const auto end = dirty.begin() + static_cast<std::ptrdiff_t>(below);
        return static_cast<std::size_t>(std::find(dirty.begin(), end, id) -
                                        dirty.begin());
    };
    std::size_t rows = 0;
    for (std::size_t q = 0; q < F; ++q) {
        const std::size_t lane = running_[q];
        const std::size_t image = lane_images_[lane];
        const std::int64_t c = lane_channels_[lane];
        const auto& acts = golden_.acts[image];
        const auto plane_of = [&](const Tensor& t) {
            return t.data() + static_cast<std::size_t>(c) *
                                  nn::channel_plane(t.shape());
        };
        // The region, one plane per node from the lane's dirty planes and
        // golden's planes of the same channel, clamped as the clip hook
        // clamps the full output.
        bool live = frontier(lane, planes + region.offset[0]);
        for (std::size_t k = 1; live && k < dirty.size(); ++k) {
            const int r = dirty[k];
            const auto& inputs = net_->node_inputs(r);
            plane_inputs_.clear();
            for (int in : inputs) {
                const std::size_t j = dirty_index(in, k);
                plane_inputs_.push_back(j < k ? planes + region.offset[j]
                                              : plane_of(golden_of(image, in)));
            }
            float* out = planes + region.offset[k];
            const Tensor& golden = acts[static_cast<std::size_t>(r)];
            const std::size_t size = nn::channel_plane(golden.shape());
            net_->layer(r).forward_channel(
                plane_inputs_, golden_of(image, inputs.front()).shape(), c,
                out);
            if (const auto& clip =
                    mitigation_.node_clips[static_cast<std::size_t>(r)])
                kernels::active().clamp(out, size, clip->first, clip->second);
            live = !region.checked[k] ||
                   std::memcmp(out, plane_of(golden),
                               size * sizeof(float)) != 0;
        }
        if (!live) {
            lane_preds_[lane] = predict_row(acts.back(), 0);
            ++retired_;
            continue;
        }
        for (const int e : region.entries) {
            const Tensor& golden = acts[static_cast<std::size_t>(e)];
            float* row = ensemble_golden_[static_cast<std::size_t>(e)].data() +
                         rows * golden.numel();
            std::memcpy(row, golden.data(), golden.numel() * sizeof(float));
            const std::size_t j = dirty_index(e, dirty.size());
            if (j < dirty.size()) {
                const std::size_t size = nn::channel_plane(golden.shape());
                std::memcpy(row + static_cast<std::size_t>(c) * size,
                            planes + region.offset[j], size * sizeof(float));
            }
        }
        if (region.needs_input) {
            const Tensor& in = golden_.images[image];
            std::memcpy(ensemble_input_.data() + rows * in.numel(), in.data(),
                        in.numel() * sizeof(float));
        }
        running_[rows++] = lane;
    }
    running_.resize(rows);
    if (rows == 0) return;
    if (rows < F) {
        for (const int e : region.entries) {
            Tensor& t = ensemble_golden_[static_cast<std::size_t>(e)];
            nn::ensure_shape(t, lane_shape(t.shape(), rows));
        }
        if (region.needs_input)
            nn::ensure_shape(ensemble_input_,
                             lane_shape(ensemble_input_.shape(), rows));
    }

    if (region.resume < 0) {  // the last node's output: the logits
        const Tensor& logits = ensemble_golden_.back();
        for (std::size_t r = 0; r < rows; ++r)
            lane_preds_[running_[r]] =
                predict_row(logits, static_cast<std::int64_t>(r));
        return;
    }
    // The resume node writes into the idle cut spare; run_suffix lends it.
    const int t = region.resume;
    Tensor& out = cut_spare_;
    const auto& inputs = net_->node_inputs(t);
    resume_lanes_.clear();
    for (const std::size_t lane : running_)
        resume_lanes_.push_back(
            {&golden_of(lane_images_[lane], inputs.front()),
             lane_channels_[lane]});
    lane_inputs_.clear();
    for (int in : inputs)
        lane_inputs_.push_back(
            in == nn::Network::kInputId
                ? &ensemble_input_
                : &ensemble_golden_[static_cast<std::size_t>(in)]);
    net_->layer(t).forward_resume(lane_inputs_, resume_lanes_, out);
    if (const auto& clip = mitigation_.node_clips[static_cast<std::size_t>(t)])
        kernels::active().clamp(out.data(), out.numel(), clip->first,
                                clip->second);
    run_suffix(t);
}

void ClassificationCore::ensemble_weight_step(
    std::span<const fault::Fault> faults, int node, std::size_t image) {
    const std::size_t F = active_.size();
    const auto d = static_cast<std::size_t>(node);
    const nn::Layer& layer = net_->layer(node);
    const auto& acts = golden_.acts[image];

    // run_lanes reuses lane_inputs_ for the resume node only after every
    // lane's frontier has run.
    lane_inputs_.clear();
    for (int in : net_->node_inputs(node))
        lane_inputs_.push_back(&golden_of(image, in));
    const std::span<const Tensor* const> inputs(lane_inputs_.data(),
                                                lane_inputs_.size());

    const Tensor& gact = acts[d];
    const std::size_t plane = nn::channel_plane(gact.shape());
    const auto& clip = mitigation_.node_clips[d];
    nn::ensure_shape(lane_buf_, gact.shape());
    lane_images_.assign(F, image);
    lane_channels_.resize(F);
    for (std::size_t l = 0; l < F; ++l)
        lane_channels_[l] =
            layer.row_of_weight(faults[active_[l]].weight_index);
    running_.resize(F);
    std::iota(running_.begin(), running_.end(), std::size_t{0});
    // Frontier: per lane, the plane (output channel) its corrupted weight
    // word feeds, recomputed under that lane's fault, then clamped as the
    // clip hook clamps a full recompute. The other planes do not depend on
    // the corrupted word, so they are golden's, and a lane whose plane is
    // golden again retires here: nothing live differs.
    run_lanes(node, [&](std::size_t lane, float* out) {
        const fault::Fault& fault = faults[active_[lane]];
        {
            fault::WeightInjector::Scoped guard(injector_, fault);
            layer.forward_row_cached(inputs, fault.weight_index,
                                     row_cache_[d][image], lane_buf_);
        }
        const std::size_t begin =
            static_cast<std::size_t>(lane_channels_[lane]) * plane;
        std::memcpy(out, lane_buf_.data() + begin, plane * sizeof(float));
        if (clip)
            kernels::active().clamp(out, plane, clip->first, clip->second);
        return std::memcmp(out, gact.data() + begin, plane * sizeof(float)) !=
               0;
    });
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
    // node's output arrives in cut_spare_ and is lent to its entry for the
    // first segment, as a cut's output is to the next one.
    std::swap(ensemble_golden_[static_cast<std::size_t>(node)], cut_spare_);
    const Tensor* out = &ensemble_golden_[static_cast<std::size_t>(node)];
    int at = node;     // the node whose output *out is
    int lent = node;   // the entry lent the spare's buffer, or -1
    while (at + 1 < n) {
        const int cut = segment_end_[static_cast<std::size_t>(at + 1)];
        out = &net_->forward_from(at + 1, ensemble_input_, ensemble_golden_,
                                  ensemble_scratch_, cut);
        std::swap(ensemble_golden_[static_cast<std::size_t>(lent)], cut_spare_);
        lent = -1;
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
    if (lent >= 0)  // node is the last node: *out was its entry
        std::swap(ensemble_golden_[static_cast<std::size_t>(lent)], cut_spare_);
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
    // images: golden planes, materialized rows and the input are each
    // lane's own image's, and a lane is compared against that image's
    // golden activations.
    const Shape& shape = golden_.acts[0].at(d).shape();  // range-checks node
    const std::size_t plane = nn::channel_plane(shape);
    lane_images_.resize(F);
    lane_channels_.resize(F);
    for (std::size_t l = 0; l < F; ++l) {
        const fault::Fault& fault = faults[l];
        lane_images_[l] = static_cast<std::size_t>(
            (fault.weight_index + static_cast<std::uint64_t>(fault.bit)) %
            images);
        if (fault.weight_index >= shape.numel())
            throw std::out_of_range(
                "ClassificationCore: activation element index out of range");
        lane_channels_[l] =
            static_cast<std::int64_t>(fault.weight_index / plane);
    }
    lend_step_buffers(node);
    running_.resize(F);
    std::iota(running_.begin(), running_.end(), std::size_t{0});
    // Lane = its image's post-hook golden plane with one element flipped.
    // No re-clamp: the fault strikes the node's (already clipped) output,
    // and only the nodes after it re-run. The flipped element always
    // differs, so no lane retires here.
    run_lanes(node, [&](std::size_t lane, float* out) {
        const fault::Fault& fault = faults[lane];
        const Tensor& act = golden_.acts[lane_images_[lane]][d];
        const std::size_t begin =
            static_cast<std::size_t>(lane_channels_[lane]) * plane;
        std::memcpy(out, act.data() + begin, plane * sizeof(float));
        float& element = out[fault.weight_index - begin];
        element = fault::apply_bit_flip(element, fault.bit, config_.dtype);
        return true;
    });
    inferences_ += F;

    for (std::size_t l = 0; l < F; ++l)
        out[l] = trips(config_.policy, golden_, lane_images_[l],
                       lane_preds_[l])
                     ? FaultOutcome::Critical
                     : FaultOutcome::NonCritical;
}

std::size_t ClassificationCore::ensemble_bytes() const noexcept {
    std::size_t floats = lane_buf_.capacity() + lane_planes_.capacity() +
                         ensemble_input_.capacity() + cut_spare_.capacity();
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
