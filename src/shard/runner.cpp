#include "shard/runner.hpp"

#include <filesystem>

#include "core/convergence.hpp"
#include "shard/fixture.hpp"
#include "shard/merge.hpp"

namespace statfi::shard {

ShardRunReport run_shard(const ShardManifest& manifest,
                         const std::string& manifest_path,
                         const ShardRunOptions& options) {
    manifest.validate();
    if (options.shard >= manifest.shards.size())
        throw std::invalid_argument(
            "shard runner: shard " + std::to_string(options.shard) +
            " out of range (manifest has " +
            std::to_string(manifest.shards.size()) + ")");
    const ShardRange range = manifest.shards[options.shard];

    ShardRunReport report;
    report.journal_path = shard_journal_path(manifest_path, options.shard);
    report.result_path = shard_result_path(manifest_path, options.shard);

    telemetry::EventLog* const log =
        options.telemetry ? options.telemetry->events() : nullptr;
    if (log)
        log->emit(telemetry::Event("shard_begin")
                      .field("shard",
                             static_cast<std::uint64_t>(options.shard))
                      .field("range_begin", range.begin)
                      .field("range_end", range.end));
    const auto emit_shard_end = [&] {
        if (log)
            log->emit(telemetry::Event("shard_end")
                          .field("shard",
                                 static_cast<std::uint64_t>(options.shard))
                          .field("complete", report.complete)
                          .field("resumed", report.resumed)
                          .field("classified", report.classified));
    };

    CampaignFixture fx = build_fixture(manifest.recipe, options.telemetry);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config, options.threads,
                                options.telemetry);
    const core::CampaignFingerprint fp =
        engine.fingerprint(fx.universe, manifest.recipe.model);
    if (fp != manifest.fingerprint)
        throw std::runtime_error(
            "shard runner: rebuilt campaign fingerprint differs from the "
            "manifest (rebuilt " + fp.describe() + "; manifest " +
            manifest.fingerprint.describe() +
            "); refusing to contribute wrong outcomes");

    if (log) emit_manifest_plan(*log, manifest, fx.universe);

    if (!options.resume) std::filesystem::remove(report.journal_path);

    ShardResult result;
    result.manifest_crc = manifest.crc();
    result.shard_id = options.shard;
    result.kind = manifest.kind();
    result.range = range;

    if (manifest.kind() == CampaignKind::Census) {
        core::DurabilityOptions durability;
        durability.journal_path = report.journal_path;
        durability.model_id = manifest.recipe.model;
        durability.cancel = options.cancel;
        durability.range_begin = range.begin;
        durability.range_end = range.end;
        const core::ExhaustiveRun run =
            engine.run_exhaustive_durable(fx.universe, durability,
                                          options.progress);
        report.complete = run.complete;
        report.resumed = run.resumed;
        report.classified = run.classified;
        if (!run.complete) {
            emit_shard_end();
            return report;
        }
        result.outcomes.resize(range.size());
        for (std::uint64_t i = 0; i < range.size(); ++i)
            result.outcomes[i] =
                static_cast<std::uint8_t>(run.outcomes.at(range.begin + i));
        report.critical = run.outcomes.critical_count(range.begin, range.end);
    } else {
        const std::vector<core::DrawnFault> items = core::draw_plan(
            fx.universe, manifest.plan,
            stats::Rng(manifest.recipe.seed).fork("campaign"));
        if (items.size() != manifest.item_count)
            throw std::runtime_error(
                "shard runner: drew " + std::to_string(items.size()) +
                " items but the manifest promises " +
                std::to_string(manifest.item_count) +
                " — plan/draw divergence");
        // The engine's durable statistical path: journaled ITEM indices
        // under the item-space fingerprint, range-restricted to this slice.
        core::DurabilityOptions durability;
        durability.journal_path = report.journal_path;
        durability.model_id = manifest.recipe.model;
        durability.cancel = options.cancel;
        durability.range_begin = range.begin;
        durability.range_end = range.end;
        core::StatisticalRun run = engine.run_durable(
            fx.universe, manifest.plan, items, durability, options.progress);
        report.complete = run.complete;
        report.resumed = run.resumed;
        report.classified = run.classified;
        result.outcomes = std::move(run.outcomes);
        if (!report.complete) {
            emit_shard_end();
            return report;
        }
        for (const std::uint8_t o : result.outcomes)
            if (static_cast<core::FaultOutcome>(o) ==
                core::FaultOutcome::Critical)
                ++report.critical;
        result.subpops.resize(range.size());
        result.layers.resize(range.size());
        for (std::uint64_t i = 0; i < range.size(); ++i) {
            const auto& item = items[range.begin + i];
            result.subpops[i] = static_cast<std::uint32_t>(item.subpop);
            result.layers[i] = item.fault.layer;
        }
    }
    result.save(report.result_path);
    std::filesystem::remove(report.journal_path);
    emit_shard_end();
    return report;
}

}  // namespace statfi::shard
