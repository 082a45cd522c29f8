#include "shard/testbed.hpp"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "io/checksum.hpp"
#include "telemetry/progress.hpp"

namespace statfi::shard {

CampaignRecipe validation_recipe() {
    CampaignRecipe recipe;
    recipe.train = true;
    recipe.images = 12;
    return recipe;
}

Testbed::Testbed(CampaignRecipe recipe)
    : recipe_(std::move(recipe)),
      fx_(build_fixture(recipe_)),
      engine_(fx_.net, fx_.eval, fx_.config) {}

std::string Testbed::census_path() const {
    const std::string fp =
        engine_.fingerprint(fx_.universe, recipe_.model).describe();
    char digest[9];
    std::snprintf(digest, sizeof(digest), "%08x",
                  static_cast<unsigned>(io::crc32(fp.data(), fp.size())));
    return cache_directory() + "/census_" + digest + ".sfio";
}

const core::ExhaustiveOutcomes& Testbed::ground_truth() {
    if (truth_) return *truth_;
    const std::string path = census_path();
    if (std::filesystem::exists(path)) {
        try {
            auto loaded = core::ExhaustiveOutcomes::load(path);
            if (loaded.size() == fx_.universe.total())
                return truth_.emplace(std::move(loaded));
            throw std::runtime_error(
                "holds " + std::to_string(loaded.size()) +
                " outcomes, universe has " +
                std::to_string(fx_.universe.total()));
        } catch (const std::exception& e) {
            std::cerr << "testbed: refused census table " << path << " ("
                      << e.what() << "), re-running\n";
        }
    }
    // Journal the census so a killed bench resumes instead of restarting;
    // the journal gives way to the census table on completion.
    core::DurabilityOptions durability;
    durability.journal_path = path + ".sfij";
    durability.model_id = recipe_.model;
    auto run = engine_.run_exhaustive_durable(
        fx_.universe, durability,
        telemetry::ProgressReporter::stream_heartbeat(std::cerr));
    run.outcomes.save(path);
    std::error_code ec;
    std::filesystem::remove(durability.journal_path, ec);
    return truth_.emplace(std::move(run.outcomes));
}

stats::Rng Testbed::rng(std::string_view experiment) const {
    return stats::Rng(recipe_.seed).fork(experiment);
}

}  // namespace statfi::shard
