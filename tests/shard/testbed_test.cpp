// Tests for the shared validation testbed: determinism, census caching, and
// the properties the benches rely on. The trained-weights cache underneath
// is build_fixture's (tests/shard/fixture_test.cpp).

#include "shard/testbed.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace statfi::shard {
namespace {

/// Redirect the cache into a scratch directory for the test's lifetime.
class TestbedTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test scratch: ctest runs each TEST as its own process, so a
        // shared cache directory would let concurrent SetUps wipe each
        // other's caches mid-test.
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        scratch_ = std::filesystem::temp_directory_path() /
                   (std::string("statfi_testbed_test_cache_") + info->name());
        std::filesystem::remove_all(scratch_);
        setenv("STATFI_CACHE_DIR", scratch_.c_str(), 1);
    }
    void TearDown() override {
        unsetenv("STATFI_CACHE_DIR");
        std::filesystem::remove_all(scratch_);
    }
    std::filesystem::path scratch_;
};

/// The validation recipe untrained, on 3 evaluation images. These cases
/// are about the census table and the testbed's wiring; training and its
/// cache are build_fixture's (tests/shard/fixture_test.cpp). The
/// golden-mismatch policy keeps an untrained network's census non-trivial.
CampaignRecipe small_recipe() {
    CampaignRecipe recipe = validation_recipe();
    recipe.train = false;
    recipe.images = 3;
    recipe.policy = core::ClassificationPolicy::GoldenMismatch;
    return recipe;
}

TEST_F(TestbedTest, CacheDirectoryCreated) {
    const auto dir = cache_directory();
    EXPECT_TRUE(std::filesystem::exists(dir));
    EXPECT_EQ(dir, scratch_.string());
}

TEST_F(TestbedTest, GroundTruthIsCachedAndStable) {
    Testbed testbed(small_recipe());
    const auto& truth = testbed.ground_truth();
    EXPECT_EQ(truth.size(), testbed.universe().total());
    EXPECT_GT(truth.critical_count(0, truth.size()), 0u);

    bool found_outcomes = false;
    for (const auto& entry : std::filesystem::directory_iterator(scratch_))
        found_outcomes |= entry.path().extension() == ".sfio";
    EXPECT_TRUE(found_outcomes);

    Testbed reloaded(small_recipe());
    const auto& again = reloaded.ground_truth();
    ASSERT_EQ(again.size(), truth.size());
    for (std::uint64_t i = 0; i < truth.size(); i += 97)
        ASSERT_EQ(again.at(i), truth.at(i)) << "fault " << i;
}

TEST_F(TestbedTest, CorruptOutcomeCacheRecomputesInsteadOfCrashing) {
    Testbed first(small_recipe());
    const auto& truth = first.ground_truth();
    std::filesystem::path outcomes;
    for (const auto& entry : std::filesystem::directory_iterator(scratch_))
        if (entry.path().extension() == ".sfio") outcomes = entry.path();
    ASSERT_FALSE(outcomes.empty());
    {
        std::fstream fs(outcomes,
                        std::ios::binary | std::ios::in | std::ios::out);
        fs.seekp(16 + 1000);  // a payload byte
        char byte = 0;
        fs.get(byte);
        fs.seekp(-1, std::ios::cur);
        fs.put(static_cast<char>(byte ^ 0x01));
    }
    Testbed second(small_recipe());
    const auto& again = second.ground_truth();
    ASSERT_EQ(again.size(), truth.size());
    for (std::uint64_t i = 0; i < truth.size(); i += 131)
        ASSERT_EQ(again.at(i), truth.at(i)) << "fault " << i;
}

TEST_F(TestbedTest, CensusTableIsNamedByTheCampaign) {
    // The name digests the campaign fingerprint (weights, eval set, policy,
    // ...), so a table is only ever replayed against the campaign it holds.
    const std::string path = Testbed(small_recipe()).census_path();
    EXPECT_EQ(Testbed(small_recipe()).census_path(), path);
    CampaignRecipe other_seed = small_recipe();
    other_seed.seed = 7;
    CampaignRecipe other_policy = small_recipe();
    other_policy.policy = core::ClassificationPolicy::AnyMisprediction;
    EXPECT_NE(Testbed(other_seed).census_path(), path);
    EXPECT_NE(Testbed(other_policy).census_path(), path);
}

TEST_F(TestbedTest, NamedRngStreamsAreStable) {
    Testbed testbed(small_recipe());
    auto a = testbed.rng("experiment-x");
    auto b = testbed.rng("experiment-x");
    EXPECT_EQ(a.next(), b.next());
    auto c = testbed.rng("experiment-y");
    EXPECT_NE(testbed.rng("experiment-x").next(), c.next());
}

TEST_F(TestbedTest, EvalSetMatchesConfig) {
    Testbed testbed(small_recipe());
    EXPECT_EQ(testbed.eval_set().size(), 3);
    EXPECT_EQ(testbed.universe().layer_count(), 4);
}

}  // namespace
}  // namespace statfi::shard
