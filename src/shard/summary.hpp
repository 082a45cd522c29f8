#pragma once
// The result summary: one campaign's outcome as every front end reports it.
//
// `statfi campaign --json` and its tables, `statfi shard merge`, and the
// daemon's result.json all render the one summary computed here from
// (recipe, universe, MergedCampaign): the totals plus, for a census, the
// exact network and per-layer critical rates, or, for a sample, the
// estimates at the recipe's confidence. A direct run, a merged one and a
// served one therefore agree by construction, and the estimator the users
// see is chosen in summarize() alone.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fault/universe.hpp"
#include "report/json.hpp"
#include "shard/manifest.hpp"
#include "shard/merge.hpp"

namespace statfi::shard {

struct LayerSummary {
    int layer = 0;
    std::string name;
    double rate = 0.0;            ///< exact (census) or estimated critical rate
    double margin = 0.0;          ///< sample only: the estimate's margin
    std::uint64_t injected = 0;   ///< sample only: faults that landed here
};

struct CampaignSummary {
    CampaignRecipe recipe;
    CampaignKind kind = CampaignKind::Census;
    std::uint64_t universe_size = 0;
    std::uint64_t total_injected = 0;
    std::uint64_t total_critical = 0;
    double rate = 0.0;    ///< network critical rate, exact or estimated
    double margin = 0.0;  ///< sample only: the network estimate's margin
    std::vector<LayerSummary> layers;
};

/// Summarize @p campaign, a census table or a sample's tallies of
/// @p recipe's campaign over @p universe. Samples are estimated with
/// core::estimate_network / estimate_layers at recipe.confidence.
CampaignSummary summarize(const CampaignRecipe& recipe,
                          const fault::FaultUniverse& universe,
                          const MergedCampaign& campaign);

/// Write @p summary into the open object of @p json: the recipe's identity,
/// the universe size and totals, then `critical_rate` and per-layer
/// `critical_rate` (census) or the `network` estimate and per-layer
/// `rate`/`margin`/`injected` (sample).
void write_summary_fields(report::JsonWriter& json,
                          const CampaignSummary& summary);

/// The summary alone as one JSON document: the daemon's result.json. It
/// holds no wall time or kernel name, so a recipe always writes the same
/// bytes.
void write_summary_json(std::ostream& out, const CampaignSummary& summary);

}  // namespace statfi::shard
