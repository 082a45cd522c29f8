#pragma once
// Observatory event emission for campaigns (DESIGN.md §5.13): the helpers
// that turn core/fault state into the frozen statfi.eventlog.v1 schema.
//
// They live in core (not telemetry) because they read CampaignPlan,
// CampaignResult, ExhaustiveOutcomes and FaultUniverse — telemetry sits
// below core in the link order and stays type-agnostic. Every helper is a
// no-op-free pure writer: callers guard with `if (session && session->events())`
// so disabled telemetry never constructs an event.
//
// Emission protocol (who writes what):
//   CLI / shard runner   campaign_header (before any PhaseScope opens),
//                        campaign_end
//   CLI / shard runner   plan (once the fixture + plan exist)
//   CampaignEngine       stratum_update during the deterministic serial
//                        accumulation loop (per-stratum powers-of-two
//                        cadence + the final point), resume, and the
//                        census strata of a complete exhaustive run
//   shard runner         shard_begin / shard_end
//   shard merger         merge_artifact (per validated artifact)
//
// Determinism: everything emitted here is a function of (recipe, seed,
// plan, outcomes) — never of worker count, wall clock, or scheduling — so
// two runs of the same campaign produce byte-identical logs modulo the
// envelope `ts` and the measured `seconds`/`wall_seconds` durations
// (asserted in tests/telemetry/eventlog_test.cpp).

#include <cstdint>
#include <string>

#include "core/outcome.hpp"
#include "core/planner.hpp"
#include "fault/universe.hpp"
#include "telemetry/eventlog.hpp"

namespace statfi::core {

/// Recipe-level identity of a campaign, known before any fixture is built.
/// Field strings use the canonical to_string() spellings so logs join
/// cleanly with manifests and CLI flags.
struct CampaignHeaderInfo {
    std::string command;   ///< "campaign", "exhaustive", "shard-run", ...
    std::string model;
    std::string approach;
    std::string dtype;
    std::string policy;
    std::uint64_t seed = 0;
    std::int64_t images = 0;
    double confidence = 0.99;
    double error_margin = 0.01;
    /// FaultModelSpec::describe() spelling ("stuck-at", "flip", "mbu-k2",
    /// "activation") and MitigationConfig::describe() ("none" when empty).
    std::string fault_model = "stuck-at";
    std::string mitigation = "none";
    /// kernels::active().name at campaign start ("generic", "avx2") — which
    /// compute backend produced the outcomes. Informational: backends are
    /// bit-identical, so it never enters fingerprints.
    std::string kernels = "generic";
};

/// Emit the mandatory first event (schema name + recipe identity).
void emit_campaign_header(telemetry::EventLog& log,
                          const CampaignHeaderInfo& info);

/// Emit the `plan` event: universe size, planned injections, stratum
/// count, bit width, and the layer table (name + population per layer) the
/// report keys its heatmap rows on. A census passes plan_exhaustive():
/// planned == universe, one stratum per (layer, bit) cell.
void emit_plan_event(telemetry::EventLog& log,
                     const fault::FaultUniverse& universe,
                     const CampaignPlan& plan);

/// Emit one estimator update for stratum @p stratum: running p_hat plus the
/// Wilson and Wald-FPC intervals at @p confidence, given @p done injections
/// and @p critical observed criticals against @p plan.
void emit_stratum_update(telemetry::EventLog& log, std::uint64_t stratum,
                         const SubpopPlan& plan, std::uint64_t done,
                         std::uint64_t critical, double confidence);

/// Emit the final stratum_update for every subpopulation of a finished (or
/// interrupted) statistical campaign — the path the shard merger uses,
/// where no per-item accumulation stream exists.
void emit_final_strata(telemetry::EventLog& log, const CampaignResult& result);

/// Emit one exact stratum_update per (layer, bit) cell of a complete
/// census: done == planned == population, so both intervals collapse to
/// zero width under the finite-population correction.
void emit_census_strata(telemetry::EventLog& log,
                        const fault::FaultUniverse& universe,
                        const ExhaustiveOutcomes& outcomes,
                        double confidence);

/// Emit the terminal event. @p complete false records an interruption.
void emit_campaign_end(telemetry::EventLog& log, bool complete,
                       std::uint64_t injected, std::uint64_t critical,
                       double wall_seconds);

}  // namespace statfi::core
