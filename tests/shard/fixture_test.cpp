// Tests for build_fixture's trained-weights cache: a later build of the same
// (model, seed) loads what the first one trained, a refused file retrains to
// the cold build's exact weights and is reported as an artifact_refused
// event, concurrent cold builds all succeed, and a build without training
// never touches the cache directory.

#include "shard/fixture.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/convergence.hpp"
#include "io/atomic_file.hpp"
#include "io/checksum.hpp"
#include "nn/serialize.hpp"
#include "report/json_parse.hpp"
#include "telemetry/session.hpp"

namespace statfi::shard {
namespace {

namespace fs = std::filesystem;

class FixtureCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test scratch: ctest runs each TEST as its own process.
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        scratch_ = fs::temp_directory_path() /
                   (std::string("statfi_fixture_test_cache_") + info->name());
        fs::remove_all(scratch_);
        setenv("STATFI_CACHE_DIR", scratch_.c_str(), 1);
    }
    void TearDown() override {
        unsetenv("STATFI_CACHE_DIR");
        fs::remove_all(scratch_);
    }

    [[nodiscard]] fs::path weights_file() const {
        return scratch_ / "micronet_s2023_t1024_e8.sfiw";
    }

    /// The bytes save_parameters writes for @p net: equal bytes, equal
    /// weights.
    std::string weight_bytes(nn::Network& net) const {
        const std::string path = (scratch_ / "snapshot.bin").string();
        nn::save_parameters(net, path);
        return bytes_of(path);
    }

    static std::string bytes_of(const fs::path& path) {
        std::string bytes;
        EXPECT_TRUE(io::read_file(path.string(), bytes)) << path;
        return bytes;
    }

    static void write_bytes(const fs::path& path, const std::string& bytes) {
        io::write_file_atomic(path.string(),
                              [&](std::ostream& os) { os << bytes; });
    }

    fs::path scratch_;
};

CampaignRecipe trained_recipe() {
    CampaignRecipe recipe;
    recipe.train = true;
    recipe.images = 3;
    return recipe;
}

double golden_accuracy(const CampaignFixture& fx) {
    return core::CampaignEngine(fx.net, fx.eval, fx.config).golden_accuracy();
}

/// Rebuild @p recipe with an event log attached; returns the fixture and
/// leaves the log's lines in @p log.
CampaignFixture build_logged(const CampaignRecipe& recipe,
                             std::ostringstream& log) {
    telemetry::Session session;
    session.attach_event_log(log);
    core::emit_campaign_header(*session.events(),
                               campaign_header(recipe, "fixture-test"));
    return build_fixture(recipe, &session);
}

/// The artifact_refused events of a log.
std::vector<report::JsonValue> refusals(const std::ostringstream& log) {
    std::vector<report::JsonValue> out;
    for (auto& event : report::parse_json_lines(log.str()))
        if (event.get_str("type") == "artifact_refused")
            out.push_back(std::move(event));
    return out;
}

TEST_F(FixtureCacheTest, TrainsAndCachesWeights) {
    auto first = build_fixture(trained_recipe());
    EXPECT_GT(first.test_accuracy, 0.3);  // far above the 10% chance level
    ASSERT_TRUE(fs::exists(weights_file()));

    // Backdate the file: a later build that rewrote it would move its mtime.
    const auto stamp = fs::file_time_type::clock::now() - std::chrono::hours(1);
    fs::last_write_time(weights_file(), stamp);
    auto second = build_fixture(trained_recipe());
    EXPECT_EQ(fs::last_write_time(weights_file()), stamp);
    EXPECT_EQ(weight_bytes(second.net), weight_bytes(first.net));
    EXPECT_DOUBLE_EQ(first.test_accuracy, second.test_accuracy);
    EXPECT_DOUBLE_EQ(golden_accuracy(first), golden_accuracy(second));

    // The key is the training identity alone: another campaign over the
    // same (model, seed) loads the same file.
    CampaignRecipe other = trained_recipe();
    other.images = 5;
    other.policy = core::ClassificationPolicy::GoldenMismatch;
    other.approach = core::Approach::LayerWise;
    auto third = build_fixture(other);
    EXPECT_EQ(fs::last_write_time(weights_file()), stamp);
    EXPECT_EQ(weight_bytes(third.net), weight_bytes(first.net));
}

TEST_F(FixtureCacheTest, CorruptWeightCacheRetrainsInsteadOfCrashing) {
    auto cold = build_fixture(trained_recipe());
    std::string bytes = bytes_of(weights_file());
    const std::string cold_bytes = bytes;
    // Flip one payload byte; the checksum must catch it, and the rebuild
    // must retrain to the same model and say why.
    bytes[bytes.size() / 2] ^= 0x40;
    write_bytes(weights_file(), bytes);

    std::ostringstream log;
    auto rebuilt = build_logged(trained_recipe(), log);
    EXPECT_EQ(weight_bytes(rebuilt.net), cold_bytes);
    EXPECT_EQ(bytes_of(weights_file()), cold_bytes);  // re-saved
    EXPECT_DOUBLE_EQ(cold.test_accuracy, rebuilt.test_accuracy);
    EXPECT_DOUBLE_EQ(golden_accuracy(cold), golden_accuracy(rebuilt));

    const auto refused = refusals(log);
    ASSERT_EQ(refused.size(), 1u) << log.str();
    EXPECT_EQ(refused[0].get_str("kind"), "weights");
    EXPECT_EQ(refused[0].get_str("path"), weights_file().string());
    EXPECT_NE(refused[0].get_str("reason").find("checksum"), std::string::npos)
        << refused[0].get_str("reason");
}

TEST_F(FixtureCacheTest, RefusedLaterTensorRetrainsFromKaimingInit) {
    // A file whose CRC holds but whose last tensor has the wrong shape is
    // refused only after every earlier tensor was read. Retraining must
    // still start from the Kaiming init, not from those partial weights.
    build_fixture(trained_recipe());
    std::string bytes = bytes_of(weights_file());
    const std::string cold_bytes = bytes;

    // SFIW v2: "SFIW" | u32 version | body | u32 crc32(body), where body is
    // u64 count, then per tensor: u32 name_len | name | u32 rank |
    // i64 dims[rank] | f32 data[numel].
    const auto read_u32 = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + 8, sizeof(count));
    ASSERT_GT(count, 1u);
    std::size_t at = 16;
    std::size_t last_dims = 0;
    for (std::uint64_t t = 0; t < count; ++t) {
        ASSERT_LT(at + 4, bytes.size());
        at += 4 + read_u32(at);  // name
        const std::uint32_t rank = read_u32(at);
        at += 4;
        last_dims = at;
        std::int64_t numel = 1;
        for (std::uint32_t d = 0; d < rank; ++d) {
            std::int64_t dim = 0;
            std::memcpy(&dim, bytes.data() + at, sizeof(dim));
            numel *= dim;
            at += sizeof(dim);
        }
        at += static_cast<std::size_t>(numel) * sizeof(float);
    }
    ASSERT_EQ(at + 4, bytes.size());
    std::int64_t dim0 = 0;
    std::memcpy(&dim0, bytes.data() + last_dims, sizeof(dim0));
    ++dim0;
    std::memcpy(bytes.data() + last_dims, &dim0, sizeof(dim0));
    const std::uint32_t crc = io::crc32(bytes.data() + 8, bytes.size() - 12);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    write_bytes(weights_file(), bytes);

    std::ostringstream log;
    auto rebuilt = build_logged(trained_recipe(), log);
    EXPECT_EQ(weight_bytes(rebuilt.net), cold_bytes);
    const auto refused = refusals(log);
    ASSERT_EQ(refused.size(), 1u) << log.str();
    EXPECT_NE(refused[0].get_str("reason").find("shape mismatch"),
              std::string::npos)
        << refused[0].get_str("reason");
}

TEST_F(FixtureCacheTest, ConcurrentColdBuildsOfOneNetworkAllSucceed) {
    // Two daemon workers running different campaigns over one (model, seed)
    // both train on a cold cache and both save the weights.
    CampaignRecipe a = trained_recipe();
    CampaignRecipe b = trained_recipe();
    b.images = 4;
    b.policy = core::ClassificationPolicy::GoldenMismatch;
    std::optional<CampaignFixture> fa, fb;
    std::string error_a, error_b;
    const auto build = [](const CampaignRecipe& recipe,
                          std::optional<CampaignFixture>& out,
                          std::string& error) {
        try {
            out.emplace(build_fixture(recipe));
        } catch (const std::exception& e) {
            error = e.what();
        }
    };
    std::thread ta(build, std::cref(a), std::ref(fa), std::ref(error_a));
    std::thread tb(build, std::cref(b), std::ref(fb), std::ref(error_b));
    ta.join();
    tb.join();
    ASSERT_TRUE(fa.has_value()) << error_a;
    ASSERT_TRUE(fb.has_value()) << error_b;
    const std::string weights = weight_bytes(fa->net);
    EXPECT_EQ(weight_bytes(fb->net), weights);
    EXPECT_EQ(bytes_of(weights_file()), weights);
}

TEST_F(FixtureCacheTest, UntrainedBuildLeavesTheCacheDirectoryAlone) {
    CampaignRecipe recipe = trained_recipe();
    recipe.train = false;
    build_fixture(recipe);
    EXPECT_FALSE(fs::exists(scratch_));
}

}  // namespace
}  // namespace statfi::shard
