#pragma once
// Recipe wire format: the service boundary between untrusted JSON and the
// typed shard::CampaignRecipe every other subsystem consumes.
//
// Three jobs, one canonicalization:
//   * parse_submission — decode a POST /campaigns body. Strict by design:
//     unknown keys, wrong value types, and out-of-range parameters are all
//     rejected with an actionable message, because a silently-defaulted
//     typo ("margni": 0.05) would run a campaign the client did not ask
//     for and cache it under the wrong identity.
//   * canonical_recipe_json — re-serialize a recipe with a FIXED key order
//     and the canonical to_string() spellings, so two submissions that
//     describe the same campaign (whatever their key order or formatting)
//     produce identical bytes. The canonical form round-trips through
//     parse_submission, which is how the persistent job queue rehydrates
//     recipes after a daemon restart.
//   * recipe_fingerprint — the content address of a campaign: a 64-bit
//     FNV-1a over the canonical JSON, printed as 16 hex digits. The result
//     cache keys every artifact (manifest, shard results, merged report)
//     on it, so resubmitting an identical recipe finds completed work.
//
// Deliberately NOT in the fingerprint: the requested shard count. The
// partition width never changes a merged result (the shard merge identity
// contract), so recipes differing only in `shards` share one cache entry —
// the entry's frozen manifest pins whichever partition ran first.

#include <cstdint>
#include <string>

#include "shard/manifest.hpp"

namespace statfi::service {

/// One decoded POST /campaigns body: the recipe plus service-level knobs
/// that are not part of the campaign identity.
struct Submission {
    shard::CampaignRecipe recipe;
    std::uint32_t shards = 0;  ///< requested partition width; 0 = daemon default
};

/// Decode an untrusted submission document. Accepted keys: model, approach,
/// fault_model, mbu_k, margin, confidence, images, policy, drop_threshold,
/// train, dtype (or its alias format), seed, clips, tmr, shards — all
/// optional except model's value having to name a registered topology.
/// Unknown keys are rejected. The recipe rules (ranges, spellings, the
/// default approach) are shard::make_recipe's, the ones the CLI applies.
/// @throws std::invalid_argument describing the first violation.
Submission parse_submission(const std::string& body);

/// Compact, key-ordered, canonically-spelled JSON of @p recipe. Identical
/// campaigns serialize to identical bytes; the output re-parses through
/// parse_submission.
std::string canonical_recipe_json(const shard::CampaignRecipe& recipe);

/// 16-hex-digit content address: FNV-1a 64 over canonical_recipe_json.
std::string recipe_fingerprint(const shard::CampaignRecipe& recipe);

}  // namespace statfi::service
