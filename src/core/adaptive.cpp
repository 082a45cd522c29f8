#include "core/adaptive.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "stats/sampling.hpp"

namespace statfi::core {

namespace {

/// Classifies a batch of drawn stratum items (live injection or
/// ground-truth lookup): one FaultOutcome per item.
using Classify = std::function<std::vector<std::uint8_t>(
    const CampaignPlan& strata, const std::vector<DrawnFault>& items)>;

/// Shared two-phase logic over every (layer, bit) stratum, layer-major — the
/// stratum index is its RNG stream id. Phase 1 classifies every pilot as one
/// batch; phase 2 re-plans each stratum at its measured rate and classifies
/// all refinement draws as a second batch.
AdaptiveResult run_two_phase(const fault::FaultUniverse& universe,
                             const AdaptiveConfig& config, stats::Rng rng,
                             const Classify& classify) {
    CampaignPlan strata = plan_exhaustive(universe);
    strata.approach = Approach::DataAware;  // closest family
    strata.spec = config.spec;
    AdaptiveResult result;
    result.combined = make_empty_result(
        static_cast<std::size_t>(universe.layer_count()), strata);
    std::vector<SubpopResult>& tallies = result.combined.subpops;

    std::vector<DrawnFault> items;
    const auto draw = [&](std::size_t s, std::uint64_t local) {
        const SubpopPlan& sp = strata.subpops[s];
        items.push_back(
            DrawnFault{s, universe.decode_in_subpop(sp.layer, sp.bit, local)});
    };
    // Classify and tally the drawn batch; returns its size.
    const auto classify_items = [&] {
        const std::vector<std::uint8_t> outcomes = classify(strata, items);
        for (std::size_t k = 0; k < items.size(); ++k)
            accumulate_outcome(tallies[items[k].subpop], items[k].fault.layer,
                               static_cast<FaultOutcome>(outcomes[k]));
        return std::exchange(items, {}).size();
    };

    // Phase 1: pilot.
    std::vector<std::vector<std::uint64_t>> pilots(tallies.size());
    for (std::size_t s = 0; s < tallies.size(); ++s) {
        auto pilot_rng = rng.fork(s);
        const std::uint64_t population = strata.subpops[s].population;
        pilots[s] = stats::sample_indices(
            population, std::min(config.pilot_size, population), pilot_rng);
        for (const auto local : pilots[s]) draw(s, local);
    }
    result.pilot_injected = classify_items();

    // Phase 2: re-plan Eq. 1 at the measured rate.
    for (std::size_t s = 0; s < tallies.size(); ++s) {
        SubpopPlan& sp = tallies[s].plan;
        const std::uint64_t n_pilot = pilots[s].size();
        const double p_hat =
            n_pilot ? static_cast<double>(tallies[s].critical) /
                          static_cast<double>(n_pilot)
                    : config.p_ceiling;
        stats::SampleSpec spec = config.spec;
        spec.p = sp.p = std::clamp(p_hat, config.p_floor, config.p_ceiling);
        const std::uint64_t n_final = stats::sample_size(sp.population, spec);
        if (n_final <= n_pilot) continue;
        auto refine_rng = rng.fork(s + 0x100000);
        for (const auto local :
             stats::sample_indices(sp.population, n_final, refine_rng))
            // Deduplicate against the pilot (indices are sorted).
            if (!std::binary_search(pilots[s].begin(), pilots[s].end(), local))
                draw(s, local);
    }
    result.refinement_injected = classify_items();
    for (SubpopResult& t : tallies) t.plan.sample_size = t.injected;
    return result;
}

}  // namespace

AdaptiveResult run_adaptive(CampaignEngine& engine,
                            const fault::FaultUniverse& universe,
                            const AdaptiveConfig& config, stats::Rng rng) {
    return run_two_phase(
        universe, config, rng,
        [&](const CampaignPlan& strata, const std::vector<DrawnFault>& items) {
            return engine.run_durable(universe, strata, items, {}).outcomes;
        });
}

AdaptiveResult replay_adaptive(const fault::FaultUniverse& universe,
                               const ExhaustiveOutcomes& truth,
                               const AdaptiveConfig& config, stats::Rng rng) {
    if (truth.size() != universe.total())
        throw std::invalid_argument("replay_adaptive: outcome table mismatch");
    return run_two_phase(
        universe, config, rng,
        [&](const CampaignPlan&, const std::vector<DrawnFault>& items) {
            std::vector<std::uint8_t> outcomes;
            for (const DrawnFault& item : items)
                outcomes.push_back(static_cast<std::uint8_t>(
                    truth.at(universe.encode(item.fault))));
            return outcomes;
        });
}

}  // namespace statfi::core
