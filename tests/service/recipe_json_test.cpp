// Recipe wire format contract: strict parsing (unknown keys, wrong types,
// out-of-range values all rejected with actionable messages), canonical
// serialization (identical campaigns -> identical bytes regardless of key
// order), and fingerprint stability — the cache key must move when the
// campaign moves and stay put when only presentation changes.

#include "service/recipe_json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace statfi::service {
namespace {

TEST(RecipeJson, ParsesFullSubmission) {
    const Submission sub = parse_submission(
        R"({"model":"micronet","approach":"layer-wise","fault_model":"flip",)"
        R"("margin":0.02,"confidence":0.95,"images":4,"policy":"golden",)"
        R"("drop_threshold":0.07,"train":false,"dtype":"fp16","seed":99,)"
        R"("clips":[{"node":"relu1","lo":-2.0,"hi":2.0}],"tmr":["conv1"],)"
        R"("shards":3})");
    const shard::CampaignRecipe& r = sub.recipe;
    EXPECT_EQ(r.model, "micronet");
    EXPECT_EQ(r.approach, core::Approach::LayerWise);
    EXPECT_EQ(r.fault_model.describe(), "flip");
    EXPECT_DOUBLE_EQ(r.error_margin, 0.02);
    EXPECT_DOUBLE_EQ(r.confidence, 0.95);
    EXPECT_EQ(r.images, 4);
    EXPECT_EQ(r.policy, core::ClassificationPolicy::GoldenMismatch);
    EXPECT_DOUBLE_EQ(r.accuracy_drop_threshold, 0.07);
    EXPECT_FALSE(r.train);
    EXPECT_EQ(r.dtype, fault::DataType::Float16);
    EXPECT_EQ(r.seed, 99u);
    ASSERT_EQ(r.mitigation.clips.size(), 1u);
    EXPECT_EQ(r.mitigation.clips[0].node, "relu1");
    ASSERT_EQ(r.mitigation.tmr.size(), 1u);
    EXPECT_EQ(r.mitigation.tmr[0].layer, "conv1");
    EXPECT_EQ(sub.shards, 3u);
}

TEST(RecipeJson, MinimalSubmissionGetsDefaults) {
    const Submission sub = parse_submission(R"({"model":"micronet"})");
    EXPECT_EQ(sub.recipe.approach, core::Approach::DataAware);
    EXPECT_EQ(sub.recipe.dtype, fault::DataType::Float32);
    EXPECT_EQ(sub.shards, 0u);  // 0 = "use the daemon default"
}

TEST(RecipeJson, ActivationAndMbuFallBackToLayerWise) {
    // Mirrors the CLI: no single-bit weight strata -> no data-aware planning.
    EXPECT_EQ(parse_submission(
                  R"({"model":"micronet","fault_model":"activation"})")
                  .recipe.approach,
              core::Approach::LayerWise);
    EXPECT_EQ(parse_submission(
                  R"({"model":"micronet","fault_model":"mbu","mbu_k":3})")
                  .recipe.approach,
              core::Approach::LayerWise);
    // An explicit approach is honored as given.
    EXPECT_EQ(parse_submission(R"({"model":"micronet",)"
                               R"("fault_model":"activation",)"
                               R"("approach":"network-wise"})")
                  .recipe.approach,
              core::Approach::NetworkWise);
}

TEST(RecipeJson, CanonicalFormRoundTrips) {
    const Submission sub = parse_submission(
        R"({"model":"micronet","margin":0.05,"seed":7,"policy":"drop",)"
        R"("drop_threshold":0.03,"clips":[{"node":"relu1","lo":-1,"hi":1}]})");
    const std::string canon = canonical_recipe_json(sub.recipe);
    const Submission again = parse_submission(canon);
    EXPECT_EQ(canonical_recipe_json(again.recipe), canon);
    EXPECT_EQ(recipe_fingerprint(again.recipe),
              recipe_fingerprint(sub.recipe));
}

TEST(RecipeJson, KeyOrderDoesNotChangeIdentity) {
    const auto a = parse_submission(
        R"({"model":"micronet","seed":11,"margin":0.05})");
    const auto b = parse_submission(
        R"({"margin":0.05,"seed":11,"model":"micronet"})");
    EXPECT_EQ(canonical_recipe_json(a.recipe), canonical_recipe_json(b.recipe));
    EXPECT_EQ(recipe_fingerprint(a.recipe), recipe_fingerprint(b.recipe));
}

TEST(RecipeJson, ShardCountIsNotPartOfIdentity) {
    // The partition width never changes a merged result (shard-merge
    // identity), so it must not split the cache.
    const auto a =
        parse_submission(R"({"model":"micronet","seed":5,"shards":2})");
    const auto b =
        parse_submission(R"({"model":"micronet","seed":5,"shards":7})");
    EXPECT_EQ(recipe_fingerprint(a.recipe), recipe_fingerprint(b.recipe));
}

TEST(RecipeJson, EveryCampaignParameterMovesTheFingerprint) {
    const std::string base = recipe_fingerprint(
        parse_submission(R"({"model":"micronet"})").recipe);
    for (const char* variant : {
             R"({"model":"micronet","seed":1})",
             R"({"model":"micronet","margin":0.02})",
             R"({"model":"micronet","confidence":0.9})",
             R"({"model":"micronet","images":3})",
             R"({"model":"micronet","policy":"drop"})",
             R"({"model":"micronet","fault_model":"flip"})",
             R"({"model":"micronet","dtype":"bf16"})",
             R"({"model":"micronet","approach":"layer-wise"})",
             R"({"model":"micronet","train":true})",
             R"({"model":"micronet","tmr":["conv1"]})",
             R"({"model":"micronet","clips":[{"node":"relu1","lo":0,"hi":1}]})",
         }) {
        EXPECT_NE(recipe_fingerprint(parse_submission(variant).recipe), base)
            << variant;
    }
}

TEST(RecipeJson, FingerprintIsSixteenHexDigits) {
    const std::string fp = recipe_fingerprint(
        parse_submission(R"({"model":"micronet"})").recipe);
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
}

/// EXPECT that parsing @p body throws and the message mentions @p needle.
void expect_rejected(const std::string& body, const std::string& needle) {
    try {
        parse_submission(body);
        FAIL() << "accepted: " << body;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' does not mention '" << needle
            << "'";
    }
}

TEST(RecipeJson, RejectsMalformedDocuments) {
    expect_rejected("", "recipe");
    expect_rejected("not json", "recipe");
    expect_rejected("[1,2,3]", "object");
    expect_rejected(R"("just a string")", "object");
    expect_rejected(R"({"model":"micronet")", "recipe");  // truncated
}

TEST(RecipeJson, RejectsUnknownKeys) {
    expect_rejected(R"({"model":"micronet","margni":0.05})", "margni");
    expect_rejected(R"({"model":"micronet","clips":[{"node":"x","low":0}]})",
                    "low");
}

TEST(RecipeJson, RejectsWrongValueTypes) {
    expect_rejected(R"({"model":42})", "string");
    expect_rejected(R"({"model":"micronet","margin":"wide"})", "number");
    expect_rejected(R"({"model":"micronet","train":1})", "boolean");
    expect_rejected(R"({"model":"micronet","seed":-3})", "non-negative");
    expect_rejected(R"({"model":"micronet","seed":1.5})", "integer");
    expect_rejected(R"({"model":"micronet","clips":{"node":"x"}})", "array");
    expect_rejected(R"({"model":"micronet","tmr":[1]})", "layer name");
}

TEST(RecipeJson, RejectsOutOfRangeValues) {
    expect_rejected(R"({"model":"micronet","margin":0})", "margin");
    expect_rejected(R"({"model":"micronet","margin":1.5})", "margin");
    expect_rejected(R"({"model":"micronet","confidence":1})", "confidence");
    expect_rejected(R"({"model":"micronet","images":0})", "images");
    expect_rejected(R"({"model":"micronet","fault_model":"mbu","mbu_k":1})",
                    "mbu_k");
    expect_rejected(R"({"model":"micronet","fault_model":"mbu-k20"})",
                    "mbu_k");
    expect_rejected(R"({"model":"micronet","shards":5000})", "shards");
    expect_rejected(R"({"model":"nonexistent-net"})", "unknown model");
    expect_rejected(R"({"model":"micronet","policy":"whenever"})", "policy");
    expect_rejected(R"({"model":"micronet","dtype":"fp64"})", "unknown format");
}

TEST(RecipeJson, MbuKAppliesToTheMbuFaultModelOnly) {
    expect_rejected(R"({"model":"micronet","fault_model":"flip","mbu_k":3})",
                    "mbu_k");
    EXPECT_EQ(parse_submission(
                  R"({"model":"micronet","fault_model":"mbu-k4","mbu_k":3})")
                  .recipe.fault_model.mbu_k,
              3);
}

// --- "format" / "dtype" aliasing -------------------------------------------
// The recipe wire format accepts both spellings of the storage format; the
// canonical form keeps emitting "dtype" so pre-"format" fingerprints (and
// therefore the content-addressed result cache) stay valid.

TEST(RecipeJson, FormatIsAnAliasForDtype) {
    EXPECT_EQ(parse_submission(R"({"model":"micronet","format":"fp16"})")
                  .recipe.dtype,
              fault::DataType::Float16);
    EXPECT_EQ(parse_submission(R"({"model":"micronet","format":"int8"})")
                  .recipe.dtype,
              fault::DataType::Int8);
    expect_rejected(R"({"model":"micronet","format":"fp64"})",
                    "unknown format");
}

TEST(RecipeJson, DefaultFormatResubmissionsHitTheSameCacheEntry) {
    // {} == {"format":"fp32"} == {"dtype":"fp32"}: spelling out the default
    // must not split the cache, and the canonical bytes are identical.
    const auto bare = parse_submission(R"({"model":"micronet"})");
    const auto fmt =
        parse_submission(R"({"model":"micronet","format":"fp32"})");
    const auto dt = parse_submission(R"({"model":"micronet","dtype":"fp32"})");
    EXPECT_EQ(canonical_recipe_json(bare.recipe),
              canonical_recipe_json(fmt.recipe));
    EXPECT_EQ(canonical_recipe_json(bare.recipe),
              canonical_recipe_json(dt.recipe));
    EXPECT_EQ(recipe_fingerprint(bare.recipe), recipe_fingerprint(fmt.recipe));
    EXPECT_EQ(recipe_fingerprint(bare.recipe), recipe_fingerprint(dt.recipe));
}

TEST(RecipeJson, EitherSpellingMovesTheFingerprintIdentically) {
    const auto via_format =
        parse_submission(R"({"model":"micronet","format":"bf16"})");
    const auto via_dtype =
        parse_submission(R"({"model":"micronet","dtype":"bf16"})");
    EXPECT_EQ(recipe_fingerprint(via_format.recipe),
              recipe_fingerprint(via_dtype.recipe));
    EXPECT_NE(recipe_fingerprint(via_format.recipe),
              recipe_fingerprint(
                  parse_submission(R"({"model":"micronet"})").recipe));
}

TEST(RecipeJson, ContradictoryFormatAndDtypeAreRejected) {
    expect_rejected(
        R"({"model":"micronet","format":"fp16","dtype":"int8"})", "disagree");
    expect_rejected(
        R"({"model":"micronet","dtype":"int8","format":"fp16"})", "disagree");
    // Agreement is fine — redundant, not contradictory.
    EXPECT_EQ(parse_submission(
                  R"({"model":"micronet","format":"fp16","dtype":"fp16"})")
                  .recipe.dtype,
              fault::DataType::Float16);
}

TEST(RecipeJson, RejectsNestingBombsAndOversizedBodies) {
    // Depth cap (8 for submissions) stops "[[[[..." stack bombs cold.
    std::string bomb = R"({"model":)";
    for (int i = 0; i < 100; ++i) bomb += "[";
    expect_rejected(bomb, "nesting deeper");
    // Size cap (64 KiB for submissions) rejects before parsing starts.
    std::string big = R"({"model":")" + std::string(100 * 1024, 'x') + R"("})";
    expect_rejected(big, "recipe");
}

}  // namespace
}  // namespace statfi::service
