#pragma once
// Shard merger: validate every shard-result artifact against the manifest
// and pool them into the exact result an unsharded run would have produced.
//
// The merger is deliberately paranoid — a merged campaign is only as
// trustworthy as its weakest shard, so every artifact must prove (1) it was
// produced from THIS manifest (payload CRC match), (2) it fills a distinct
// shard slot (no duplicates, no missing shards), and (3) it covers exactly
// the item range the manifest assigned to that slot. Gap/overlap freedom of
// the ranges themselves is the manifest's validate() invariant. Artifact
// corruption (truncation, bit flips) is caught by the framed-artifact
// checksum before any of this runs.
//
// Census merges reassemble the dense ExhaustiveOutcomes table; statistical
// merges pool subpopulation tallies in item order via the same
// accumulate_outcome used by direct execution — both bit-identical to an
// unsharded run of the same recipe.

#include <string>
#include <vector>

#include "core/outcome.hpp"
#include "shard/manifest.hpp"
#include "shard/result.hpp"
#include "telemetry/session.hpp"

namespace statfi::shard {

/// A campaign's outcomes, merged from shards or classified directly
/// (run_range): exactly one of the two payloads is meaningful, selected by
/// `kind`.
struct MergedCampaign {
    CampaignKind kind = CampaignKind::Census;
    /// Census: the dense outcome table over the whole universe.
    core::ExhaustiveOutcomes outcomes;
    /// Statistical: the subpopulation tallies (a merge's wall_seconds is
    /// zero — the merger does no inference).
    core::CampaignResult result;

    /// Critical items across the whole campaign.
    [[nodiscard]] std::uint64_t critical() const {
        return kind == CampaignKind::Census
                   ? outcomes.critical_count(0, outcomes.size())
                   : result.total_critical();
    }
};

/// Log @p manifest's campaign the way a direct run of its recipe logs it,
/// so `statfi report` reads sharded and direct campaigns alike:
/// emit_manifest_plan before the shards run (the census plan over
/// @p universe, or the frozen statistical plan), emit_merged_strata once
/// they are merged (the exact per-(layer, bit) census strata, or the final
/// statistical estimates).
void emit_manifest_plan(telemetry::EventLog& log,
                        const ShardManifest& manifest,
                        const fault::FaultUniverse& universe);
void emit_merged_strata(telemetry::EventLog& log,
                        const ShardManifest& manifest,
                        const fault::FaultUniverse& universe,
                        const MergedCampaign& merged);

/// Merge the shard results at @p result_paths (any order) under
/// @p manifest. @throws std::runtime_error naming the violated invariant:
/// unreadable/corrupt artifact, foreign manifest CRC, kind mismatch,
/// shard id out of range, duplicate shard, range mismatch, missing shard.
/// @p telemetry (optional, borrowed) records the "shard_merge" phase span
/// plus merged-artifact/item counters.
MergedCampaign merge_shards(const ShardManifest& manifest,
                            const std::vector<std::string>& result_paths,
                            telemetry::Session* telemetry = nullptr);

/// Convenience: merge using the conventional sibling artifact paths next to
/// @p manifest_path (shard_result_path for every shard in the manifest).
MergedCampaign merge_shards(const ShardManifest& manifest,
                            const std::string& manifest_path,
                            telemetry::Session* telemetry = nullptr);

}  // namespace statfi::shard
