#pragma once
// Adaptive (two-phase) statistical fault injection — an extension beyond
// the paper.
//
// The data-aware method guesses each subpopulation's success probability
// p(i) from the weight distribution BEFORE any injection. The adaptive
// campaign instead *measures* it: a small pilot sample per (bit, layer)
// subpopulation produces p_hat, Eq. 1 is re-evaluated at p_hat to size the
// final sample, and only the remainder is injected. This realizes the
// iterative variant of Neyman allocation that bench_ablation_alloc shows is
// otherwise unrealizable (the variances are not known up front), at the
// cost of one extra planning round trip.

#include "core/engine.hpp"

namespace statfi::core {

struct AdaptiveConfig {
    stats::SampleSpec spec;          ///< target margin/confidence of phase 2
    std::uint64_t pilot_size = 50;   ///< faults per subpopulation in phase 1
    double p_floor = 1e-3;           ///< lower clamp on the measured p_hat
    double p_ceiling = 0.5;          ///< upper clamp (0.5 = safest)
};

struct AdaptiveResult {
    CampaignResult combined;          ///< union of pilot + refinement samples
    std::uint64_t pilot_injected = 0;
    std::uint64_t refinement_injected = 0;

    [[nodiscard]] std::uint64_t total_injected() const {
        return pilot_injected + refinement_injected;
    }
};

/// Runs the two-phase campaign over every (bit, layer) subpopulation of
/// @p universe. Phase-2 samples are drawn independently and merged with the
/// pilot (duplicates evaluated once); tallies count distinct faults. Each
/// phase's draws run through @p engine as one sample, so tallies equal
/// replay_adaptive() over the engine's census for any worker count.
AdaptiveResult run_adaptive(CampaignEngine& engine,
                            const fault::FaultUniverse& universe,
                            const AdaptiveConfig& config, stats::Rng rng);

/// Replay variant against exhaustive ground truth (used by tests/benches).
AdaptiveResult replay_adaptive(const fault::FaultUniverse& universe,
                               const ExhaustiveOutcomes& truth,
                               const AdaptiveConfig& config, stats::Rng rng);

}  // namespace statfi::core
