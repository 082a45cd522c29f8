#pragma once
// Range runner and shard runner.
//
// run_range classifies an item range of a recipe's campaign on a caller's
// engine, census or sample: the one census-or-sample branch, run over the
// full range by `statfi campaign` and over one slice by run_shard.
//
// run_shard executes ONE shard of a manifest in this process, durably. It
// rebuilds the campaign fixture from the manifest's recipe,
// proves the rebuild matches by comparing campaign fingerprints, and then
// classifies its item slice through the ordinary CampaignEngine — so it
// inherits the engine's checkpoint/resume journal, cooperative
// cancellation, progress/ETA, and multi-worker execution unchanged. On
// completion it writes the checksummed shard-result artifact next to the
// manifest and removes its journal; on interruption it leaves the journal
// for a `--resume` rerun.
//
// Census shards journal GLOBAL FAULT indices (the engine's range-restricted
// durable census). Statistical shards journal ITEM indices into the
// canonical drawn sample; their journal fingerprint swaps the universe size
// for the item count and tags the model id, so a census journal can never
// be resumed into a statistical shard or vice versa.

#include <string>

#include "core/engine.hpp"
#include "shard/fixture.hpp"
#include "shard/manifest.hpp"
#include "shard/merge.hpp"
#include "telemetry/session.hpp"

namespace statfi::shard {

/// One classified item range of a recipe's campaign: how far the run got,
/// and its outcomes as a merge holds them.
struct RangeRun : core::RunStatus {
    /// Census: the universe-sized outcome table, the range's slots filled.
    /// Sample: the tallies of the range's classified items.
    MergedCampaign campaign;
    /// Sample only: the whole drawn sample in canonical item order, and the
    /// range's per-item outcome bytes (what a shard result records).
    std::vector<core::DrawnFault> items;
    std::vector<std::uint8_t> outcomes;
};

/// Classify items [durability.range_begin, range_end) of @p recipe's
/// campaign on @p engine: fault indices of @p fx's universe for a census,
/// else the sample core::draw_plan draws from @p plan with the recipe's
/// seed. The one place a run chooses between the two (campaign_kind):
/// `statfi campaign` runs the full range, `run_shard` its slice. The
/// journal is fingerprinted with the recipe's model, whatever
/// durability.model_id says.
RangeRun run_range(const CampaignRecipe& recipe, const core::CampaignPlan& plan,
                   const CampaignFixture& fx, core::CampaignEngine& engine,
                   core::DurabilityOptions durability,
                   const core::ProgressFn& progress = {});

struct ShardRunOptions {
    std::uint32_t shard = 0;
    bool resume = false;   ///< continue from a matching journal if present
    std::size_t threads = 1;  ///< engine workers (0 = hardware concurrency)
    const core::CancellationToken* cancel = nullptr;
    core::ProgressFn progress;  ///< heartbeat over this shard's item span
    /// Optional telemetry sink (borrowed); handed to the shard's engine, so
    /// counters/spans cover fixture build, classification, and journaling.
    telemetry::Session* telemetry = nullptr;
};

/// How far the shard got (complete / resumed / classified items).
struct ShardRunReport : core::RunStatus {
    std::uint64_t critical = 0;    ///< Critical outcomes in this shard's slice
    std::string result_path;       ///< written artifact (complete runs only)
    std::string journal_path;      ///< checkpoint journal (interrupted runs)
};

/// Run shard @p options.shard of @p manifest; artifacts are placed next to
/// @p manifest_path. @throws std::runtime_error when the rebuilt fixture's
/// fingerprint does not match the manifest (diverged binary/data), and
/// std::invalid_argument for an out-of-range shard id.
ShardRunReport run_shard(const ShardManifest& manifest,
                         const std::string& manifest_path,
                         const ShardRunOptions& options);

}  // namespace statfi::shard
