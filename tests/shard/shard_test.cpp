// Tests for the scale-out subsystem: a sharded campaign must be
// indistinguishable from an unsharded one (bit-identical census, identical
// statistical tallies) for every shard count, through interruptions, and the
// merger must refuse every malformed input (gaps, overlaps, duplicates,
// foreign manifests, corrupted artifacts) instead of producing a silently
// wrong result.
//
// Registered as a single ctest entry (like integration_test) so the
// expensive reference census is computed once per run, not once per TEST.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "shard/driver.hpp"
#include "shard/fixture.hpp"
#include "shard/manifest.hpp"
#include "shard/merge.hpp"
#include "shard/result.hpp"
#include "shard/runner.hpp"
#include "shard/summary.hpp"

namespace statfi::shard {
namespace {

/// Kaiming micronet, 2 evaluation images, GoldenMismatch — outcomes are
/// meaningful without paying for training (same shape as the durability
/// suite's fixture).
CampaignRecipe census_recipe() {
    CampaignRecipe recipe;
    recipe.model = "micronet";
    recipe.approach = core::Approach::Exhaustive;
    recipe.images = 2;
    recipe.policy = core::ClassificationPolicy::GoldenMismatch;
    recipe.seed = 424242;
    return recipe;
}

/// Layer-wise at a loose margin: a real multi-subpopulation statistical
/// campaign, small enough (~thousands of items) to run many times.
CampaignRecipe statistical_recipe(core::Approach approach) {
    CampaignRecipe recipe = census_recipe();
    recipe.approach = approach;
    recipe.error_margin = 0.05;
    recipe.confidence = 0.95;
    return recipe;
}

/// What `statfi shard plan` does, in-process.
ShardManifest make_manifest(const CampaignRecipe& recipe,
                            std::uint32_t shards) {
    ShardManifest manifest = freeze_manifest(recipe, build_fixture(recipe));
    manifest.shards = partition_items(manifest.item_count, shards);
    return manifest;
}

/// What `statfi campaign` does, in-process: the recipe's full item range
/// on one fixture and one engine.
MergedCampaign run_direct(const CampaignRecipe& recipe) {
    auto fx = build_fixture(recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    const core::CampaignPlan plan =
        engine.plan(fx.universe, campaign_spec(recipe));
    return run_range(recipe, plan, fx, engine, {}).campaign;
}

/// The summary document (the daemon's result.json) of @p campaign.
std::string summary_json(const CampaignRecipe& recipe,
                         const MergedCampaign& campaign) {
    std::ostringstream out;
    write_summary_json(out,
                       summarize(recipe, build_fixture(recipe).universe,
                                 campaign));
    return out.str();
}

/// The unsharded census this whole suite compares against — computed once.
const MergedCampaign& reference_census() {
    static const MergedCampaign truth = run_direct(census_recipe());
    return truth;
}

void expect_identical(const core::ExhaustiveOutcomes& a,
                      const core::ExhaustiveOutcomes& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::uint64_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << "fault " << i;
}

void expect_same_result(const core::CampaignResult& a,
                        const core::CampaignResult& b) {
    ASSERT_EQ(a.subpops.size(), b.subpops.size());
    for (std::size_t s = 0; s < a.subpops.size(); ++s) {
        SCOPED_TRACE("subpop " + std::to_string(s));
        EXPECT_EQ(a.subpops[s].injected, b.subpops[s].injected);
        EXPECT_EQ(a.subpops[s].critical, b.subpops[s].critical);
        EXPECT_EQ(a.subpops[s].masked, b.subpops[s].masked);
        EXPECT_EQ(a.subpops[s].layer_injected, b.subpops[s].layer_injected);
        EXPECT_EQ(a.subpops[s].layer_critical, b.subpops[s].layer_critical);
    }
    EXPECT_EQ(a.total_injected(), b.total_injected());
    EXPECT_EQ(a.total_critical(), b.total_critical());
}

class ShardTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() / "statfi_shard_test";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        manifest_path_ = (dir_ / "campaign.sfim").string();
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// Plan, save, run every shard to completion, and merge.
    MergedCampaign run_sharded(const CampaignRecipe& recipe,
                               std::uint32_t shards) {
        const ShardManifest manifest = make_manifest(recipe, shards);
        manifest.save(manifest_path_);
        for (std::uint32_t k = 0; k < shards; ++k) {
            ShardRunOptions options;
            options.shard = k;
            const auto report = run_shard(manifest, manifest_path_, options);
            EXPECT_TRUE(report.complete);
            EXPECT_FALSE(
                std::filesystem::exists(report.journal_path))
                << "journal should be removed after a complete shard run";
        }
        return merge_shards(manifest, manifest_path_);
    }

    std::filesystem::path dir_;
    std::string manifest_path_;
};

// --- manifest format + partitioning ---------------------------------------

TEST_F(ShardTest, PartitionIsContiguousAndBalanced) {
    const auto ranges = partition_items(10, 4);
    ASSERT_EQ(ranges.size(), 4u);
    EXPECT_EQ(ranges[0], (ShardRange{0, 3}));
    EXPECT_EQ(ranges[1], (ShardRange{3, 6}));
    EXPECT_EQ(ranges[2], (ShardRange{6, 8}));
    EXPECT_EQ(ranges[3], (ShardRange{8, 10}));
    EXPECT_THROW(partition_items(3, 0), std::invalid_argument);
    EXPECT_THROW(partition_items(3, 4), std::invalid_argument);
}

TEST_F(ShardTest, ManifestRoundTripsThroughDisk) {
    const ShardManifest manifest =
        make_manifest(statistical_recipe(core::Approach::LayerWise), 3);
    manifest.save(manifest_path_);
    const ShardManifest loaded = ShardManifest::load(manifest_path_);
    EXPECT_EQ(loaded.crc(), manifest.crc());
    EXPECT_EQ(loaded.recipe.model, manifest.recipe.model);
    EXPECT_EQ(loaded.recipe.seed, manifest.recipe.seed);
    EXPECT_EQ(loaded.fingerprint, manifest.fingerprint);
    EXPECT_EQ(loaded.item_count, manifest.item_count);
    EXPECT_EQ(loaded.shards, manifest.shards);
    ASSERT_EQ(loaded.plan.subpops.size(), manifest.plan.subpops.size());
    for (std::size_t s = 0; s < loaded.plan.subpops.size(); ++s) {
        EXPECT_EQ(loaded.plan.subpops[s].layer, manifest.plan.subpops[s].layer);
        EXPECT_EQ(loaded.plan.subpops[s].sample_size,
                  manifest.plan.subpops[s].sample_size);
    }
}

TEST_F(ShardTest, ManifestValidateRefusesGapsAndOverlaps) {
    ShardManifest manifest =
        make_manifest(statistical_recipe(core::Approach::LayerWise), 2);
    // Gap: second shard starts after the first ends.
    ShardManifest gap = manifest;
    gap.shards[1].begin += 1;
    try {
        gap.validate();
        FAIL() << "gap not refused";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("gap"), std::string::npos)
            << e.what();
    }
    // Overlap: second shard starts before the first ends.
    ShardManifest overlap = manifest;
    overlap.shards[1].begin -= 1;
    try {
        overlap.validate();
        FAIL() << "overlap not refused";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos)
            << e.what();
    }
    // Short coverage: last shard ends before item_count.
    ShardManifest short_cov = manifest;
    short_cov.shards[1].end -= 1;
    EXPECT_THROW(short_cov.validate(), std::invalid_argument);
}

// --- census bit-identity ---------------------------------------------------

TEST_F(ShardTest, MergedCensusIsBitIdenticalForEveryShardCount) {
    const std::string direct =
        summary_json(census_recipe(), reference_census());
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
        SCOPED_TRACE("shards = " + std::to_string(shards));
        const MergedCampaign merged = run_sharded(census_recipe(), shards);
        ASSERT_EQ(merged.kind, CampaignKind::Census);
        expect_identical(merged.outcomes, reference_census().outcomes);
        EXPECT_EQ(summary_json(census_recipe(), merged), direct);
    }
}

TEST_F(ShardTest, ReducedPrecisionMergedCensusMatchesDirectRun) {
    // The format contract end to end: a campaign over encoded fp16/int8
    // weights is still a pure function of the recipe, so sharding it must
    // be invisible (same QuantizedStore snapshot, same scales, same words).
    for (const auto dtype : {fault::DataType::Float16, fault::DataType::Int8}) {
        SCOPED_TRACE(fault::to_string(dtype));
        CampaignRecipe recipe = census_recipe();
        recipe.dtype = dtype;

        auto fx = build_fixture(recipe);
        core::CampaignEngine engine(fx.net, fx.eval, fx.config);
        const auto direct = engine.run_exhaustive_durable(fx.universe, {});

        const MergedCampaign merged = run_sharded(recipe, 3);
        ASSERT_EQ(merged.kind, CampaignKind::Census);
        expect_identical(merged.outcomes, direct.outcomes);
    }
}

TEST_F(ShardTest, PerFormatCensusIsWorkerCountInvariant) {
    // Every format's outcome table must be bit-identical no matter how many
    // workers classify it (capped census prefix keeps this cheap).
    for (const auto dtype :
         {fault::DataType::Float32, fault::DataType::Float16,
          fault::DataType::BFloat16, fault::DataType::Int8}) {
        SCOPED_TRACE(fault::to_string(dtype));
        CampaignRecipe recipe = census_recipe();
        recipe.dtype = dtype;
        core::DurabilityOptions durability;
        durability.range_end = 4096;

        auto fx1 = build_fixture(recipe);
        core::CampaignEngine one(fx1.net, fx1.eval, fx1.config, 1);
        const auto serial = one.run_exhaustive_durable(fx1.universe,
                                                       durability);
        auto fx3 = build_fixture(recipe);
        core::CampaignEngine three(fx3.net, fx3.eval, fx3.config, 3);
        const auto parallel = three.run_exhaustive_durable(fx3.universe,
                                                           durability);
        for (std::uint64_t i = 0; i < durability.range_end; ++i)
            ASSERT_EQ(serial.outcomes.at(i), parallel.outcomes.at(i))
                << "fault " << i;
    }
}

TEST_F(ShardTest, InterruptedCensusShardResumesToIdenticalMerge) {
    const ShardManifest manifest = make_manifest(census_recipe(), 2);
    manifest.save(manifest_path_);

    // Interrupt shard 0 at its first progress heartbeat.
    core::CancellationToken cancel;
    ShardRunOptions interrupted;
    interrupted.shard = 0;
    interrupted.cancel = &cancel;
    interrupted.progress = [&](const core::ProgressInfo&) {
        cancel.request_stop();
    };
    const auto partial = run_shard(manifest, manifest_path_, interrupted);
    ASSERT_FALSE(partial.complete);
    ASSERT_TRUE(std::filesystem::exists(partial.journal_path))
        << "interrupted shard must leave its journal";
    ASSERT_FALSE(std::filesystem::exists(partial.result_path));
    EXPECT_LT(partial.classified, manifest.shards[0].size());

    // Resume shard 0, run shard 1 normally, merge.
    ShardRunOptions resume;
    resume.shard = 0;
    resume.resume = true;
    const auto resumed = run_shard(manifest, manifest_path_, resume);
    ASSERT_TRUE(resumed.complete);
    EXPECT_GT(resumed.resumed, 0u) << "resume should replay journal records";
    EXPECT_EQ(resumed.resumed + resumed.classified,
              manifest.shards[0].size());

    ShardRunOptions rest;
    rest.shard = 1;
    ASSERT_TRUE(run_shard(manifest, manifest_path_, rest).complete);

    const MergedCampaign merged = merge_shards(manifest, manifest_path_);
    expect_identical(merged.outcomes, reference_census().outcomes);
}

// --- statistical identity --------------------------------------------------

TEST_F(ShardTest, MergedStatisticalCampaignMatchesDirectRun) {
    for (const auto approach :
         {core::Approach::LayerWise, core::Approach::NetworkWise,
          core::Approach::DataUnaware}) {
        SCOPED_TRACE(core::to_string(approach));
        const CampaignRecipe recipe = statistical_recipe(approach);
        const MergedCampaign direct = run_direct(recipe);
        ASSERT_EQ(direct.kind, CampaignKind::Statistical);

        const MergedCampaign merged = run_sharded(recipe, 3);
        ASSERT_EQ(merged.kind, CampaignKind::Statistical);
        expect_same_result(merged.result, direct.result);
        EXPECT_EQ(summary_json(recipe, merged), summary_json(recipe, direct));
    }
}

TEST_F(ShardTest, MergedFaultModelCampaignsMatchDirectRuns) {
    // Every non-default fault model through the same shard pipeline: the
    // recipe carries the model, the fixture builds the right universe, and
    // the merge is indistinguishable from a direct run.
    for (const auto spec :
         {fault::FaultModelSpec{fault::FaultModelKind::WeightBitFlip, 1},
          fault::FaultModelSpec{fault::FaultModelKind::MultiBitUpset, 2},
          fault::FaultModelSpec{fault::FaultModelKind::ActivationBitFlip, 1}}) {
        SCOPED_TRACE(spec.describe());
        CampaignRecipe recipe = statistical_recipe(core::Approach::LayerWise);
        recipe.fault_model = spec;
        recipe.error_margin = 0.1;  // activation universes are large

        auto fx = build_fixture(recipe);
        core::CampaignEngine engine(fx.net, fx.eval, fx.config);
        const auto plan = engine.plan(fx.universe, campaign_spec(recipe));
        const auto direct = engine.run(
            fx.universe, plan, stats::Rng(recipe.seed).fork("campaign"));

        const MergedCampaign merged = run_sharded(recipe, 3);
        ASSERT_EQ(merged.kind, CampaignKind::Statistical);
        expect_same_result(merged.result, direct);
    }
}

TEST_F(ShardTest, ManifestRoundTripsFaultModelAndMitigation) {
    CampaignRecipe recipe = statistical_recipe(core::Approach::LayerWise);
    recipe.fault_model =
        fault::FaultModelSpec{fault::FaultModelKind::MultiBitUpset, 3};
    recipe.mitigation.clips.push_back(fault::ClipRule{"*", -6.0f, 6.0f});
    recipe.mitigation.tmr.push_back(fault::TmrRule{"conv1"});
    const ShardManifest manifest = make_manifest(recipe, 2);
    manifest.save(manifest_path_);
    const ShardManifest loaded = ShardManifest::load(manifest_path_);
    EXPECT_EQ(loaded.recipe.fault_model.kind,
              fault::FaultModelKind::MultiBitUpset);
    EXPECT_EQ(loaded.recipe.fault_model.mbu_k, 3);
    EXPECT_EQ(loaded.recipe.mitigation, recipe.mitigation);
    EXPECT_EQ(loaded.fingerprint, manifest.fingerprint);
    EXPECT_EQ(loaded.fingerprint.fault_model,
              static_cast<std::uint8_t>(fault::FaultModelKind::MultiBitUpset));
    EXPECT_EQ(loaded.fingerprint.mbu_k, 3);
    EXPECT_NE(loaded.fingerprint.mitigation_hash, 0u);
}

TEST_F(ShardTest, InterruptedStatisticalShardResumesToIdenticalMerge) {
    const CampaignRecipe recipe =
        statistical_recipe(core::Approach::LayerWise);
    auto fx = build_fixture(recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    const auto plan = engine.plan(fx.universe, campaign_spec(recipe));
    const auto direct = engine.run(fx.universe, plan,
                                   stats::Rng(recipe.seed).fork("campaign"));

    const ShardManifest manifest = make_manifest(recipe, 2);
    manifest.save(manifest_path_);

    // Stop shard 0 from another thread shortly after it starts; whether the
    // stop lands mid-run or after completion, the merged result must be
    // unchanged.
    core::CancellationToken cancel;
    ShardRunOptions interrupted;
    interrupted.shard = 0;
    interrupted.cancel = &cancel;
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        cancel.request_stop();
    });
    const auto partial = run_shard(manifest, manifest_path_, interrupted);
    stopper.join();
    if (!partial.complete) {
        ShardRunOptions resume;
        resume.shard = 0;
        resume.resume = true;
        const auto resumed = run_shard(manifest, manifest_path_, resume);
        ASSERT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.resumed + resumed.classified,
                  manifest.shards[0].size());
    }
    ShardRunOptions rest;
    rest.shard = 1;
    ASSERT_TRUE(run_shard(manifest, manifest_path_, rest).complete);

    const MergedCampaign merged = merge_shards(manifest, manifest_path_);
    expect_same_result(merged.result, direct);
}

// --- runner refusals -------------------------------------------------------

TEST_F(ShardTest, RunnerRefusesFingerprintMismatch) {
    ShardManifest manifest =
        make_manifest(statistical_recipe(core::Approach::LayerWise), 2);
    manifest.fingerprint.weights_hash ^= 0xDEADBEEF;  // diverged weights
    ShardRunOptions options;
    options.shard = 0;
    try {
        run_shard(manifest, manifest_path_, options);
        FAIL() << "fingerprint mismatch not refused";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
            << e.what();
    }
}

TEST_F(ShardTest, RunnerRefusesOutOfRangeShard) {
    const ShardManifest manifest =
        make_manifest(statistical_recipe(core::Approach::LayerWise), 2);
    ShardRunOptions options;
    options.shard = 2;
    EXPECT_THROW(run_shard(manifest, manifest_path_, options),
                 std::invalid_argument);
}

// --- merge refusals --------------------------------------------------------

/// Shared completed 2-shard statistical campaign for the refusal tests.
class MergeRefusalTest : public ShardTest {
protected:
    void SetUp() override {
        ShardTest::SetUp();
        manifest_ = make_manifest(statistical_recipe(core::Approach::LayerWise), 2);
        manifest_.save(manifest_path_);
        for (std::uint32_t k = 0; k < 2; ++k) {
            ShardRunOptions options;
            options.shard = k;
            ASSERT_TRUE(run_shard(manifest_, manifest_path_, options).complete);
        }
    }

    void expect_merge_failure(const std::vector<std::string>& paths,
                              const std::string& needle) {
        try {
            merge_shards(manifest_, paths);
            FAIL() << "expected merge failure containing '" << needle << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << "got: " << e.what();
        }
    }

    [[nodiscard]] std::string result_path(std::uint32_t k) const {
        return shard_result_path(manifest_path_, k);
    }

    ShardManifest manifest_;
};

TEST_F(MergeRefusalTest, HappyPathMerges) {
    const MergedCampaign merged = merge_shards(manifest_, manifest_path_);
    EXPECT_EQ(merged.result.total_injected(), manifest_.item_count);
}

TEST_F(MergeRefusalTest, RefusesMissingShard) {
    expect_merge_failure({result_path(0)}, "no result for shard 1");
}

TEST_F(MergeRefusalTest, RefusesDuplicateShard) {
    expect_merge_failure({result_path(0), result_path(0)},
                         "duplicate results for shard 0");
}

TEST_F(MergeRefusalTest, RefusesResultFromDifferentManifest) {
    // Re-plan with a different seed: same shape, different campaign.
    CampaignRecipe other = statistical_recipe(core::Approach::LayerWise);
    other.seed = 99;
    const ShardManifest foreign = make_manifest(other, 2);
    const std::string foreign_path = (dir_ / "foreign.sfim").string();
    foreign.save(foreign_path);
    ShardRunOptions options;
    options.shard = 0;
    ASSERT_TRUE(run_shard(foreign, foreign_path, options).complete);

    expect_merge_failure(
        {shard_result_path(foreign_path, 0), result_path(1)},
        "different manifest");
}

TEST_F(MergeRefusalTest, RefusesCorruptedArtifact) {
    // Flip one payload byte in shard 0's result: the artifact checksum must
    // catch it before any merge semantics run.
    std::string bytes;
    {
        std::ifstream in(result_path(0), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    bytes[bytes.size() / 2] ^= 0x20;
    {
        std::ofstream out(result_path(0), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    expect_merge_failure({result_path(0), result_path(1)},
                         "checksum mismatch");
}

TEST_F(MergeRefusalTest, RefusesTruncatedArtifact) {
    std::string bytes;
    {
        std::ifstream in(result_path(0), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    {
        std::ofstream out(result_path(0), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    expect_merge_failure({result_path(0), result_path(1)}, "shard result");
}

TEST_F(MergeRefusalTest, RefusesRangeMismatch) {
    // A result whose range disagrees with the manifest's slot assignment:
    // rewrite shard 1's artifact with a shifted range.
    ShardResult r = ShardResult::load(result_path(1));
    r.range.begin -= 1;
    r.range.end -= 1;
    r.outcomes.resize(r.range.size());
    r.subpops.resize(r.range.size());
    r.layers.resize(r.range.size());
    r.save(result_path(1));
    expect_merge_failure({result_path(0), result_path(1)},
                         "but the manifest assigns");
}

TEST_F(MergeRefusalTest, RefusesGapAndOverlapManifests) {
    // Doctored manifests fail validate() before any artifact is read.
    ShardManifest gap = manifest_;
    gap.shards[1].begin += 1;
    EXPECT_THROW(merge_shards(gap, {result_path(0), result_path(1)}),
                 std::invalid_argument);
    ShardManifest overlap = manifest_;
    overlap.shards[1].begin -= 1;
    EXPECT_THROW(merge_shards(overlap, {result_path(0), result_path(1)}),
                 std::invalid_argument);
}

// --- result artifact -------------------------------------------------------

TEST_F(ShardTest, ResultRoundTripsThroughDisk) {
    ShardResult result;
    result.manifest_crc = 0xABCD1234;
    result.shard_id = 7;
    result.kind = CampaignKind::Statistical;
    result.range = {100, 104};
    result.outcomes = {0, 1, 2, 1};
    result.subpops = {0, 0, 1, 2};
    result.layers = {0, 0, 1, 3};
    const std::string path = (dir_ / "result.sfis").string();
    result.save(path);
    const ShardResult loaded = ShardResult::load(path);
    EXPECT_EQ(loaded.manifest_crc, result.manifest_crc);
    EXPECT_EQ(loaded.shard_id, result.shard_id);
    EXPECT_EQ(loaded.kind, result.kind);
    EXPECT_EQ(loaded.range, result.range);
    EXPECT_EQ(loaded.outcomes, result.outcomes);
    EXPECT_EQ(loaded.subpops, result.subpops);
    EXPECT_EQ(loaded.layers, result.layers);
}

TEST_F(ShardTest, ResultSaveValidatesArraySizes) {
    ShardResult result;
    result.kind = CampaignKind::Census;
    result.range = {0, 4};
    result.outcomes = {0, 1};  // wrong size
    EXPECT_THROW(result.save((dir_ / "bad.sfis").string()),
                 std::invalid_argument);
}

}  // namespace
}  // namespace statfi::shard
