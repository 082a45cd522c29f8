#pragma once
// Shard manifest: the single source of truth for a scaled-out campaign.
//
// One campaign is split into N independent shard jobs; the manifest pins
// everything a shard runner needs to reproduce its slice bit-identically on
// another process (or machine), and everything the merger needs to prove the
// slices belong together:
//   * the RECIPE — model, approach, statistical spec, evaluation-set size,
//     policy, dtype, seed — from which any process can rebuild the exact
//     network, evaluation set, and fault universe;
//   * the FINGERPRINT the planning process computed after building that
//     fixture (universe size, dtype, policy, eval/weights hashes). A runner
//     rebuilds the fixture, recomputes the fingerprint, and refuses to run
//     when they differ — catching a diverged binary, dataset, or RNG before
//     it can poison a merged result;
//   * the PLAN — for statistical campaigns, the full per-subpopulation
//     sample sizes, so shards never re-derive them (and a data-aware
//     analysis runs once, at planning time);
//   * the SHARD RANGES — a contiguous, gap-free, overlap-free partition of
//     the item space: global fault indices [0, N) for a census, global
//     drawn-sample item indices [0, n) for a statistical campaign (items in
//     the canonical core::draw_plan order).
//
// The manifest is a framed artifact ("SFIM", CRC32-trailed, written
// atomically — src/io/artifact.hpp); its payload CRC doubles as the
// campaign identity that every shard-result artifact must carry back.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/outcome.hpp"
#include "core/planner.hpp"
#include "fault/mitigation.hpp"
#include "fault/model.hpp"

namespace statfi::shard {

/// What the item space enumerates: the whole fault universe (census) or a
/// pre-drawn statistical sample.
enum class CampaignKind : std::uint8_t { Census = 0, Statistical = 1 };

const char* to_string(CampaignKind kind) noexcept;

/// Everything needed to rebuild the campaign fixture from scratch — mirrors
/// the `statfi` CLI options that define a campaign (see shard::build_fixture
/// for the exact reconstruction).
struct CampaignRecipe {
    std::string model = "micronet";
    core::Approach approach = core::Approach::Exhaustive;
    double error_margin = 0.01;
    double confidence = 0.99;
    std::int64_t images = 8;           ///< evaluation images per fault
    core::ClassificationPolicy policy =
        core::ClassificationPolicy::AnyMisprediction;
    double accuracy_drop_threshold = 0.0;
    bool train = false;                ///< fit on synthetic data first
    fault::DataType dtype = fault::DataType::Float32;
    std::uint64_t seed = 2023;
    /// Which fault universe the campaign enumerates (stuck-at weights by
    /// default; flip / mbu-kN / activation select the other models).
    fault::FaultModelSpec fault_model;
    /// Mitigations deployed on every runner's network (part of the campaign
    /// identity — the fingerprint hashes the descriptor).
    fault::MitigationConfig mitigation;
};

/// What a recipe's item space enumerates: a census for the exhaustive
/// approach, a drawn sample for every other. Every run path (`statfi
/// campaign`, `shard run`, the daemon's shards) branches on this.
CampaignKind campaign_kind(const CampaignRecipe& recipe) noexcept;

/// A recipe as a front end reads it (the CLI's flags, a service
/// submission): the typed fields plus the spellings make_recipe parses.
struct RecipeInput {
    CampaignRecipe recipe;  ///< approach, fault_model, policy are replaced
    /// Empty: data-aware, or layer-wise for fault models without single-bit
    /// weight strata (activation, mbu), which data-aware cannot plan.
    std::string approach;
    std::string fault_model = "stuck-at";  ///< stuck-at|flip|mbu[-kN]|activation
    std::optional<std::int64_t> mbu_k;     ///< overrides the mbu spelling's k
    std::string policy = "any";            ///< any|golden|drop
};

/// The recipe rules every front end shares: parse the spellings, fill the
/// default approach, and refuse an unknown model or an out-of-range value.
/// @throws std::invalid_argument naming the first violated rule.
CampaignRecipe make_recipe(RecipeInput input);

/// The canonical spelling of a classification policy (any|golden|drop),
/// the one make_recipe parses.
const char* policy_name(core::ClassificationPolicy policy) noexcept;

/// One shard's contiguous slice [begin, end) of the item space.
struct ShardRange {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
    [[nodiscard]] bool operator==(const ShardRange&) const = default;
};

struct ShardManifest {
    CampaignRecipe recipe;
    core::CampaignFingerprint fingerprint;
    /// Statistical campaigns: the concrete plan (drawn deterministically by
    /// every runner via core::draw_plan). Empty subpops for a census.
    core::CampaignPlan plan;
    std::uint32_t layer_count = 0;  ///< universe layers (merge-side tallies)
    std::uint64_t item_count = 0;   ///< universe size or total sample size
    std::vector<ShardRange> shards;

    [[nodiscard]] CampaignKind kind() const noexcept {
        return campaign_kind(recipe);
    }

    /// CRC32 of the serialized payload — the identity shard results carry so
    /// the merger can prove they were produced from THIS manifest.
    [[nodiscard]] std::uint32_t crc() const;

    /// Check internal consistency: at least one shard, every range
    /// non-empty, ranges contiguous from 0 to item_count (the contiguity
    /// check is what refuses gaps and overlaps), and the item count
    /// consistent with the fingerprint (census) or plan (statistical).
    /// @throws std::invalid_argument naming the violated invariant.
    void validate() const;

    /// Atomic, checksummed save/load ("SFIM" v1). load() validates the
    /// frame (empty/short/magic/version/checksum each get a distinct
    /// error), decodes, and runs validate().
    void save(const std::string& path) const;
    static ShardManifest load(const std::string& path);
};

/// Deterministically partition [0, item_count) into @p count contiguous,
/// maximally balanced, non-empty ranges (the first `item_count % count`
/// ranges get one extra item).
/// @throws std::invalid_argument when count is 0 or exceeds item_count.
std::vector<ShardRange> partition_items(std::uint64_t item_count,
                                        std::uint32_t count);

/// Conventional sibling paths next to a manifest at @p manifest_path.
std::string shard_result_path(const std::string& manifest_path,
                              std::uint32_t shard);
std::string shard_journal_path(const std::string& manifest_path,
                               std::uint32_t shard);

}  // namespace statfi::shard
