#include "shard/summary.hpp"

#include "core/estimator.hpp"

namespace statfi::shard {

CampaignSummary summarize(const CampaignRecipe& recipe,
                          const fault::FaultUniverse& universe,
                          const MergedCampaign& campaign) {
    CampaignSummary s;
    s.recipe = recipe;
    s.kind = campaign.kind;
    s.universe_size = universe.total();
    if (campaign.kind == CampaignKind::Census) {
        const core::ExhaustiveOutcomes& truth = campaign.outcomes;
        s.total_injected = universe.total();
        s.total_critical = truth.critical_count(0, universe.total());
        s.rate = truth.network_critical_rate();
        for (int l = 0; l < universe.layer_count(); ++l)
            s.layers.push_back({l, universe.layer(l).name,
                                truth.layer_critical_rate(universe, l)});
        return s;
    }
    core::EstimatorConfig config;
    config.confidence = recipe.confidence;
    const core::CampaignResult& result = campaign.result;
    s.total_injected = result.total_injected();
    s.total_critical = result.total_critical();
    const core::Estimate network =
        core::estimate_network(universe, result, config);
    s.rate = network.rate;
    s.margin = network.margin;
    for (const auto& le : core::estimate_layers(universe, result, config))
        s.layers.push_back({le.layer, universe.layer(le.layer).name,
                            le.estimate.rate, le.estimate.margin,
                            le.estimate.injected});
    return s;
}

void write_summary_fields(report::JsonWriter& json,
                          const CampaignSummary& summary) {
    const CampaignRecipe& recipe = summary.recipe;
    const bool census = summary.kind == CampaignKind::Census;
    json.field("model", recipe.model)
        .field("approach", core::to_string(recipe.approach))
        .field("fault_model", recipe.fault_model.describe())
        .field("mitigation", recipe.mitigation.describe())
        .field("dtype", fault::to_string(recipe.dtype))
        .field("policy", core::to_string(recipe.policy))
        .field("seed", recipe.seed)
        .field("images", static_cast<std::int64_t>(recipe.images))
        .field("universe_size", summary.universe_size)
        .field("total_injected", summary.total_injected)
        .field("total_critical", summary.total_critical);
    if (census)
        json.field("critical_rate", summary.rate);
    else
        json.key("network")
            .begin_object()
            .field("rate", summary.rate)
            .field("margin", summary.margin)
            .end_object();
    json.key("layers").begin_array();
    for (const LayerSummary& l : summary.layers) {
        json.begin_object().field("layer", l.layer).field("name", l.name);
        if (census)
            json.field("critical_rate", l.rate);
        else
            json.field("rate", l.rate)
                .field("margin", l.margin)
                .field("injected", l.injected);
        json.end_object();
    }
    json.end_array();
}

void write_summary_json(std::ostream& out, const CampaignSummary& summary) {
    report::JsonWriter json(out);
    json.begin_object();
    write_summary_fields(json, summary);
    json.end_object();
    json.finish();
}

}  // namespace statfi::shard
