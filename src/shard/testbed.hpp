#pragma once
// Validation testbed: the setup shared by the benches and examples that
// reproduce the paper's validation experiments (Table III, Fig. 5-7) on the
// MicroNet substrate (DESIGN.md §2) instead of the paper's 37 / 54 GPU-day
// ResNet-20 / MobileNetV2 censuses.
//
// A testbed is a campaign recipe run the way `statfi exhaustive` runs it:
// build_fixture (which caches the trained weights), one CampaignEngine, and
// the census table `statfi exhaustive --out` writes for the recipe, cached
// in cache_directory() under a digest of the campaign fingerprint so a table
// is only ever replayed against the weights, data and policy it holds.

#include <optional>
#include <string>
#include <string_view>

#include "shard/fixture.hpp"

namespace statfi::shard {

/// The validation recipe: MicroNet trained on seed 2023 (DATE'23), 12
/// evaluation images, any-misprediction criticality, stuck-at weight faults.
CampaignRecipe validation_recipe();

class Testbed {
public:
    explicit Testbed(CampaignRecipe recipe = validation_recipe());
    Testbed(const Testbed&) = delete;
    Testbed& operator=(const Testbed&) = delete;

    [[nodiscard]] nn::Network& network() { return fx_.net; }
    [[nodiscard]] const data::Dataset& eval_set() const { return fx_.eval; }
    [[nodiscard]] const fault::FaultUniverse& universe() const {
        return fx_.universe;
    }
    [[nodiscard]] core::CampaignEngine& engine() { return engine_; }
    [[nodiscard]] double golden_accuracy() const {
        return engine_.golden_accuracy();
    }
    [[nodiscard]] double test_accuracy() const { return fx_.test_accuracy; }

    /// "<cache>/census_<crc32 of the campaign fingerprint>.sfio".
    [[nodiscard]] std::string census_path() const;

    /// Exhaustive per-fault outcomes: the cached census table when it loads
    /// and matches the universe, else a census through the engine's
    /// resumable journal (progress on stderr), saved for later runs.
    const core::ExhaustiveOutcomes& ground_truth();

    /// Deterministic RNG stream for a named experiment.
    [[nodiscard]] stats::Rng rng(std::string_view experiment) const;

private:
    CampaignRecipe recipe_;
    CampaignFixture fx_;
    core::CampaignEngine engine_;
    std::optional<core::ExhaustiveOutcomes> truth_;
};

}  // namespace statfi::shard
