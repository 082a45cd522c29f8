#pragma once
// Campaign fixture reconstruction: recipe -> (network, evaluation set, fault
// universe, executor config), identically in every process.
//
// The shard determinism contract hinges on this being a pure function of
// the recipe: the planning process, each shard runner (possibly on another
// machine), and the unsharded reference run all call build_fixture and land
// on bit-identical weights and evaluation tensors — verified at run time by
// comparing campaign fingerprints against the manifest. The `statfi` CLI
// routes its campaign/exhaustive commands through the same function, so the
// CLI and the shard subsystem cannot drift apart.

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "shard/manifest.hpp"

namespace statfi::shard {

struct CampaignFixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;
    core::ExecutorConfig config;
    /// Held-out test accuracy when recipe.train is set, else 0.
    double test_accuracy = 0.0;
};

/// The directory every cached artifact of this process lives in:
/// $STATFI_CACHE_DIR, default ".statfi_cache" (created if missing).
std::string cache_directory();

/// Rebuild the campaign fixture from a recipe: build the model, initialize
/// Kaiming from Rng(seed).fork("init"), optionally train on 1024 synthetic
/// images (Rng(seed).fork("train")), generate the evaluation set, and
/// enumerate the recipe's fault-model universe for its dtype (stuck-at,
/// bit-flip, multi-bit, or activation — fault::FaultUniverse::make). The
/// recipe's mitigation config is carried into the executor config, so every
/// runner deploys the same hardened network.
///
/// Training is cached: the trained weights live in cache_directory() as
/// "<model>_s<seed>_t1024_e8.sfiw", keyed by the training identity alone,
/// so every recipe, process and thread that trains one (model, seed) after
/// the first loads them. A file that fails to load is refused (an
/// `artifact_refused` event when @p telemetry has an event log) and the
/// network is trained again from its Kaiming init and re-saved. Without
/// recipe.train the cache directory is neither created nor read. Training
/// goes to stderr. @p telemetry (optional, borrowed) records the build as
/// the "fixture_build" phase.
CampaignFixture build_fixture(const CampaignRecipe& recipe,
                              telemetry::Session* telemetry = nullptr);

/// The campaign spec a recipe's statistical parameters describe.
core::CampaignSpec campaign_spec(const CampaignRecipe& recipe);

/// The campaign_header a recipe's event log opens with, for the process
/// role @p command ("campaign", "exhaustive", "shard-run", "serve", ...).
core::CampaignHeaderInfo campaign_header(const CampaignRecipe& recipe,
                                         const std::string& command);

/// Freeze a recipe into a manifest over its rebuilt fixture: the campaign
/// fingerprint, the plan (data-aware analysis included; a census keeps the
/// empty exhaustive plan), and the item count. The caller partitions it:
/// `manifest.shards = partition_items(manifest.item_count, width)`.
ShardManifest freeze_manifest(const CampaignRecipe& recipe,
                              const CampaignFixture& fx);

}  // namespace statfi::shard
