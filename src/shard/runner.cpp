#include "shard/runner.hpp"

#include <filesystem>

#include "shard/result.hpp"

namespace statfi::shard {

RangeRun run_range(const CampaignRecipe& recipe, const core::CampaignPlan& plan,
                   const CampaignFixture& fx, core::CampaignEngine& engine,
                   core::DurabilityOptions durability,
                   const core::ProgressFn& progress) {
    durability.model_id = recipe.model;
    RangeRun run;
    run.campaign.kind = campaign_kind(recipe);
    if (run.campaign.kind == CampaignKind::Census) {
        // Streams the universe: no fault is materialized.
        core::ExhaustiveRun census =
            engine.run_exhaustive_durable(fx.universe, durability, progress);
        static_cast<core::RunStatus&>(run) = census;
        run.campaign.outcomes = std::move(census.outcomes);
    } else {
        run.items = core::draw_plan(fx.universe, plan,
                                    stats::Rng(recipe.seed).fork("campaign"));
        core::StatisticalRun sample = engine.run_durable(
            fx.universe, plan, run.items, durability, progress);
        static_cast<core::RunStatus&>(run) = sample;
        run.campaign.result = std::move(sample.result);
        run.outcomes = std::move(sample.outcomes);
    }
    return run;
}

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

    core::DurabilityOptions durability;
    durability.journal_path = report.journal_path;
    durability.cancel = options.cancel;
    durability.range_begin = range.begin;
    durability.range_end = range.end;
    RangeRun run = run_range(manifest.recipe, manifest.plan, fx, engine,
                             durability, options.progress);
    static_cast<core::RunStatus&>(report) = run;
    if (!run.complete) {
        emit_shard_end();
        return report;
    }
    report.critical = run.campaign.critical();

    ShardResult result;
    result.manifest_crc = manifest.crc();
    result.shard_id = options.shard;
    result.kind = manifest.kind();
    result.range = range;
    if (result.kind == CampaignKind::Census) {
        const auto bytes = run.campaign.outcomes.bytes();
        result.outcomes.assign(bytes.begin() + range.begin,
                               bytes.begin() + range.end);
    } else {
        result.outcomes = std::move(run.outcomes);
        result.subpops.resize(range.size());
        result.layers.resize(range.size());
        for (std::uint64_t i = 0; i < range.size(); ++i) {
            const auto& item = run.items[range.begin + i];
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
