#include "core/convergence.hpp"

#include <sstream>

#include "report/json.hpp"
#include "stats/intervals.hpp"

namespace statfi::core {

using telemetry::Event;
using telemetry::EventLog;

void emit_campaign_header(EventLog& log, const CampaignHeaderInfo& info) {
    log.emit(Event("campaign_header")
                 .field("schema", EventLog::kSchemaName)
                 .field("command", info.command)
                 .field("model", info.model)
                 .field("approach", info.approach)
                 .field("dtype", info.dtype)
                 // `format` mirrors dtype under the name the format
                 // subsystem speaks; readers prefer it and fall back to
                 // dtype for pre-format logs.
                 .field("format", info.dtype)
                 .field("policy", info.policy)
                 .field("seed", info.seed)
                 .field("images", info.images)
                 .field("confidence", info.confidence)
                 .field("error_margin", info.error_margin)
                 .field("fault_model", info.fault_model)
                 .field("mitigation", info.mitigation)
                 .field("kernels", info.kernels));
}

namespace {

/// The layer table every `plan` event carries: the report keys heatmap rows
/// and per-layer tallies on it.
/// Canonical fault-model spelling of a universe ("stuck-at", "mbu-k2", ...).
std::string universe_fault_model(const fault::FaultUniverse& universe) {
    return fault::FaultModelSpec{universe.kind(), universe.mbu_k()}.describe();
}

std::string layers_json(const fault::FaultUniverse& universe) {
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_array();
    for (int l = 0; l < universe.layer_count(); ++l) {
        json.begin_object();
        json.field("layer", static_cast<std::int64_t>(l));
        json.field("name", universe.layer(l).name);
        json.field("population", universe.layer_population(l));
        json.end_object();
    }
    json.end_array();
    json.finish();
    std::string text = out.str();
    // finish() appends the document-terminating newline; embedded in an
    // event line it would break the one-event-per-line invariant.
    while (!text.empty() && (text.back() == '\n' || text.back() == ' '))
        text.pop_back();
    return text;
}

}  // namespace

void emit_plan_event(EventLog& log, const fault::FaultUniverse& universe,
                     const CampaignPlan& plan) {
    log.emit(Event("plan")
                 .field("approach", to_string(plan.approach))
                 .field("fault_model", universe_fault_model(universe))
                 .field("universe", universe.total())
                 .field("planned", plan.total_sample_size())
                 .field("strata",
                        static_cast<std::uint64_t>(plan.subpops.size()))
                 .field("bits", universe.bits())
                 .raw("layers", layers_json(universe)));
}

namespace {

void emit_stratum(EventLog& log, std::uint64_t stratum, int layer, int bit,
                  std::uint64_t population, std::uint64_t planned,
                  std::uint64_t done, std::uint64_t critical,
                  double confidence) {
    const double p_hat =
        done ? static_cast<double>(critical) / static_cast<double>(done)
             : 0.0;
    stats::Interval wilson{0.0, 1.0};
    stats::Interval wald{0.0, 1.0};
    if (done) {
        wilson = stats::wilson_interval(critical, done, confidence);
        wald = stats::wald_interval_fpc(critical, done, population,
                                        confidence);
    }
    log.emit(Event("stratum_update")
                 .field("stratum", stratum)
                 .field("layer", layer)
                 .field("bit", bit)
                 .field("population", population)
                 .field("planned", planned)
                 .field("done", done)
                 .field("critical", critical)
                 .field("p_hat", p_hat)
                 .field("wilson_lo", wilson.lo)
                 .field("wilson_hi", wilson.hi)
                 .field("wald_lo", wald.lo)
                 .field("wald_hi", wald.hi));
}

}  // namespace

void emit_stratum_update(EventLog& log, std::uint64_t stratum,
                         const SubpopPlan& plan, std::uint64_t done,
                         std::uint64_t critical, double confidence) {
    emit_stratum(log, stratum, plan.layer, plan.bit, plan.population,
                 plan.sample_size, done, critical, confidence);
}

void emit_final_strata(EventLog& log, const CampaignResult& result) {
    for (std::size_t i = 0; i < result.subpops.size(); ++i) {
        const SubpopResult& sub = result.subpops[i];
        emit_stratum_update(log, static_cast<std::uint64_t>(i), sub.plan,
                            sub.injected, sub.critical,
                            result.spec.confidence);
    }
}

void emit_census_strata(EventLog& log, const fault::FaultUniverse& universe,
                        const ExhaustiveOutcomes& outcomes,
                        double confidence) {
    const int bits = universe.bits();
    for (int l = 0; l < universe.layer_count(); ++l) {
        const std::uint64_t population = universe.bit_population(l);
        for (int bit = 0; bit < bits; ++bit) {
            const std::uint64_t offset = universe.subpop_offset(l, bit);
            const std::uint64_t critical =
                outcomes.critical_count(offset, offset + population);
            const std::uint64_t stratum =
                static_cast<std::uint64_t>(l) *
                    static_cast<std::uint64_t>(bits) +
                static_cast<std::uint64_t>(bit);
            emit_stratum(log, stratum, l, bit, population, population,
                         population, critical, confidence);
        }
    }
}

void emit_campaign_end(EventLog& log, bool complete, std::uint64_t injected,
                       std::uint64_t critical, double wall_seconds) {
    log.emit(Event("campaign_end")
                 .field("outcome", complete ? "complete" : "interrupted")
                 .field("injected", injected)
                 .field("critical", critical)
                 .field("wall_seconds", wall_seconds));
}

}  // namespace statfi::core
