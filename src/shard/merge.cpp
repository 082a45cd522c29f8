#include "shard/merge.hpp"

#include <chrono>
#include <stdexcept>

#include "core/convergence.hpp"

namespace statfi::shard {

MergedCampaign merge_shards(const ShardManifest& manifest,
                            const std::vector<std::string>& result_paths,
                            telemetry::Session* telemetry) {
    // A merge-only process never builds an engine, so freeze the metric
    // schema here (single slot) unless a prior campaign already did.
    if (telemetry && !telemetry->metrics().frozen())
        telemetry->bind_workers(1);
    telemetry::PhaseScope scope(telemetry, "shard_merge");
    manifest.validate();
    const std::uint32_t expected_crc = manifest.crc();
    const CampaignKind kind = manifest.kind();

    // Load and slot every artifact; every check names the offending path.
    // Each artifact gets its own validate span (and, when an event log is
    // attached, a merge_artifact event) so the /trace view and the HTML
    // phase breakdown show where a slow merge spends its time.
    std::vector<ShardResult> results(manifest.shards.size());
    std::vector<std::uint8_t> present(manifest.shards.size(), 0);
    for (const std::string& path : result_paths) {
        telemetry::PhaseScope validate_scope(telemetry, "merge_validate");
        const auto artifact_start = std::chrono::steady_clock::now();
        ShardResult r = ShardResult::load(path);
        if (r.manifest_crc != expected_crc)
            throw std::runtime_error(
                "shard merge: " + path +
                " was produced from a different manifest (artifact crc " +
                std::to_string(r.manifest_crc) + ", manifest crc " +
                std::to_string(expected_crc) + ")");
        if (r.kind != kind)
            throw std::runtime_error(
                "shard merge: " + path + " is a " +
                std::string(to_string(r.kind)) + " result but the manifest is " +
                to_string(kind));
        if (r.shard_id >= manifest.shards.size())
            throw std::runtime_error(
                "shard merge: " + path + " claims shard " +
                std::to_string(r.shard_id) + " but the manifest has only " +
                std::to_string(manifest.shards.size()) + " shards");
        if (present[r.shard_id])
            throw std::runtime_error(
                "shard merge: duplicate results for shard " +
                std::to_string(r.shard_id) + " (second: " + path + ")");
        if (r.range != manifest.shards[r.shard_id])
            throw std::runtime_error(
                "shard merge: " + path + " covers items [" +
                std::to_string(r.range.begin) + ", " +
                std::to_string(r.range.end) + ") but the manifest assigns [" +
                std::to_string(manifest.shards[r.shard_id].begin) + ", " +
                std::to_string(manifest.shards[r.shard_id].end) +
                ") to shard " + std::to_string(r.shard_id));
        present[r.shard_id] = 1;
        if (telemetry) {
            telemetry->metrics().inc(0,
                                     telemetry->ids().merge_artifacts_total);
            telemetry->metrics().inc(0, telemetry->ids().merge_items_total,
                                     r.range.size());
            if (telemetry::EventLog* log = telemetry->events())
                log->emit(
                    telemetry::Event("merge_artifact")
                        .field("shard",
                               static_cast<std::uint64_t>(r.shard_id))
                        .field("items", r.range.size())
                        .field("seconds",
                               std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   artifact_start)
                                   .count()));
        }
        results[r.shard_id] = std::move(r);
    }
    for (std::size_t k = 0; k < present.size(); ++k)
        if (!present[k])
            throw std::runtime_error("shard merge: no result for shard " +
                                     std::to_string(k) + " of " +
                                     std::to_string(present.size()));

    MergedCampaign merged;
    merged.kind = kind;
    if (kind == CampaignKind::Census) {
        merged.outcomes = core::ExhaustiveOutcomes(manifest.item_count);
        for (const ShardResult& r : results)
            for (std::uint64_t i = 0; i < r.range.size(); ++i)
                merged.outcomes.set(
                    r.range.begin + i,
                    static_cast<core::FaultOutcome>(r.outcomes[i]));
    } else {
        merged.result =
            core::make_empty_result(manifest.layer_count, manifest.plan);
        // Item order (shards are range-ascending by validate()) — the same
        // accumulation order as the unsharded engine's final tally loop.
        for (const ShardResult& r : results)
            for (std::uint64_t i = 0; i < r.range.size(); ++i) {
                if (r.subpops[i] >= merged.result.subpops.size())
                    throw std::runtime_error(
                        "shard merge: shard " + std::to_string(r.shard_id) +
                        " attributes an item to subpopulation " +
                        std::to_string(r.subpops[i]) +
                        " which the plan does not define");
                core::accumulate_outcome(
                    merged.result.subpops[r.subpops[i]], r.layers[i],
                    static_cast<core::FaultOutcome>(r.outcomes[i]));
            }
    }
    return merged;
}

MergedCampaign merge_shards(const ShardManifest& manifest,
                            const std::string& manifest_path,
                            telemetry::Session* telemetry) {
    std::vector<std::string> paths;
    paths.reserve(manifest.shards.size());
    for (std::uint32_t k = 0; k < manifest.shards.size(); ++k)
        paths.push_back(shard_result_path(manifest_path, k));
    return merge_shards(manifest, paths, telemetry);
}

void emit_manifest_plan(telemetry::EventLog& log,
                        const ShardManifest& manifest,
                        const fault::FaultUniverse& universe) {
    core::emit_plan_event(log, universe,
                          manifest.kind() == CampaignKind::Census
                              ? core::plan_exhaustive(universe)
                              : manifest.plan);
}

void emit_merged_strata(telemetry::EventLog& log,
                        const ShardManifest& manifest,
                        const fault::FaultUniverse& universe,
                        const MergedCampaign& merged) {
    if (merged.kind == CampaignKind::Census)
        core::emit_census_strata(log, universe, merged.outcomes,
                                 manifest.recipe.confidence);
    else
        core::emit_final_strata(log, merged.result);
}

}  // namespace statfi::shard
