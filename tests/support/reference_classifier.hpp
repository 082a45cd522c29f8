#pragma once
// The per-fault test oracle for ClassificationCore.
//
// ReferenceClassifier restates the fault -> outcome classification in the
// plainest form: inject one fault into the stored weights, re-run every
// node from the dirty one on (Network::forward_from) for one image at a
// time, apply the policy, restore. It has no lanes, no row cache, no
// suffix-dependency stacking and no shared policy code with src/core, so
// the ensemble path's shortcuts are exactly what it checks. It uses only
// WeightInjector, fault::resolve_mitigation, core::build_golden_cache and
// Network::forward_from.
//
// evaluate_one() is the other helper here: one fault through the product
// path, a one-fault ClassificationCore::evaluate_group.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/classification_core.hpp"
#include "fault/injector.hpp"
#include "fault/mitigation.hpp"

namespace statfi::testsupport {

class ReferenceClassifier {
public:
    /// Deploys the config's mitigations on @p net the way a deployed
    /// network runs them (clip rules clamp every protected node output,
    /// golden pass included), then caches the golden activations.
    ReferenceClassifier(nn::Network& net, const data::Dataset& eval,
                        core::ExecutorConfig config = {})
        : net_(&net),
          config_(std::move(config)),
          mitigation_(deploy(config_.mitigation, net)),
          injector_(net, config_.dtype, config_.layer_quant),
          golden_(core::build_golden_cache(net, eval)) {}

    /// Faulty image inferences run so far.
    [[nodiscard]] std::uint64_t inference_count() const noexcept {
        return inferences_;
    }

    core::FaultOutcome evaluate(const fault::Fault& fault) {
        if (fault.model == fault::FaultModel::ActivationFlip)
            return evaluate_activation(fault);
        if (mitigation_.tmr_protects(fault.layer) || injector_.masked(fault))
            return core::FaultOutcome::Masked;
        fault::WeightInjector::Scoped guard(injector_, fault);
        const int dirty = injector_.node_of_layer(fault.layer);
        const std::size_t count = golden_.images.size();
        switch (config_.policy) {
            case core::ClassificationPolicy::AnyMisprediction:
                // Only a golden-correct image can turn into a misprediction;
                // visit those, in index order, until one does.
                for (std::size_t i = 0; i < count; ++i) {
                    if (golden_.preds[i] != golden_.labels[i]) continue;
                    if (infer(dirty, i) != golden_.labels[i])
                        return core::FaultOutcome::Critical;
                }
                return core::FaultOutcome::NonCritical;
            case core::ClassificationPolicy::GoldenMismatch:
                for (std::size_t i = 0; i < count; ++i)
                    if (infer(dirty, i) != golden_.preds[i])
                        return core::FaultOutcome::Critical;
                return core::FaultOutcome::NonCritical;
            case core::ClassificationPolicy::AccuracyDrop: {
                // Stop as soon as the drop is certain: even if every
                // remaining image came out correct it would exceed the
                // threshold.
                const double threshold = config_.accuracy_drop_threshold *
                                         static_cast<double>(count);
                std::uint64_t faulty_correct = 0;
                for (std::size_t i = 0; i < count; ++i) {
                    if (infer(dirty, i) == golden_.labels[i]) ++faulty_correct;
                    const std::uint64_t remaining = count - 1 - i;
                    if (static_cast<double>(golden_.correct) -
                            static_cast<double>(faulty_correct + remaining) >
                        threshold)
                        return core::FaultOutcome::Critical;
                }
                return core::FaultOutcome::NonCritical;
            }
        }
        return core::FaultOutcome::NonCritical;
    }

private:
    static fault::ResolvedMitigation deploy(
        const fault::MitigationConfig& config, nn::Network& net) {
        auto resolved = fault::resolve_mitigation(config, net);
        if (resolved.any_clip)
            net.set_node_hook([clips = resolved.node_clips](int id,
                                                            Tensor& out) {
                const auto& range = clips[static_cast<std::size_t>(id)];
                if (!range) return;
                for (std::size_t e = 0; e < out.numel(); ++e)
                    out[e] = std::clamp(out[e], range->first, range->second);
            });
        return resolved;
    }

    /// Top-1 of one faulty inference of image @p i, re-running nodes from
    /// @p first_dirty on; -1 when the winning logit is not finite.
    int infer(int first_dirty, std::size_t i) {
        const Tensor& logits = net_->forward_from(
            first_dirty, golden_.images[i], golden_.acts[i], scratch_);
        ++inferences_;
        const int best = nn::argmax_row(logits, 0);
        return std::isfinite(logits[static_cast<std::size_t>(best)]) ? best
                                                                      : -1;
    }

    /// A transient fault lives in ONE inference, of image (element + bit)
    /// mod |eval|: corrupt one element of the node's cached golden output,
    /// re-run only the nodes after it, restore.
    core::FaultOutcome evaluate_activation(const fault::Fault& fault) {
        const std::size_t i = static_cast<std::size_t>(
            (fault.weight_index + static_cast<std::uint64_t>(fault.bit)) %
            golden_.images.size());
        Tensor& act = golden_.acts[i].at(static_cast<std::size_t>(fault.layer));
        if (fault.weight_index >= static_cast<std::uint64_t>(act.numel()))
            throw std::out_of_range("activation element index out of range");
        const auto element = static_cast<std::size_t>(fault.weight_index);
        const float saved = act[element];
        act[element] = fault::apply_bit_flip(saved, fault.bit, config_.dtype);
        const int prediction = infer(fault.layer + 1, i);
        act[element] = saved;
        // AccuracyDrop over a single inference is a golden mismatch.
        const bool critical =
            config_.policy == core::ClassificationPolicy::AnyMisprediction
                ? golden_.preds[i] == golden_.labels[i] &&
                      prediction != golden_.labels[i]
                : prediction != golden_.preds[i];
        return critical ? core::FaultOutcome::Critical
                        : core::FaultOutcome::NonCritical;
    }

    nn::Network* net_;
    core::ExecutorConfig config_;
    fault::ResolvedMitigation mitigation_;
    fault::WeightInjector injector_;
    core::GoldenCache golden_;
    std::vector<Tensor> scratch_;
    std::uint64_t inferences_ = 0;
};

/// Classify one fault through the product path: a group of one.
inline core::FaultOutcome evaluate_one(core::ClassificationCore& core,
                                       const fault::Fault& fault) {
    core::FaultOutcome out = core::FaultOutcome::NonCritical;
    core.evaluate_group({&fault, 1}, &out);
    return out;
}

}  // namespace statfi::testsupport
