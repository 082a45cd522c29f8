#pragma once
// Observatory report: turn a statfi.eventlog.v1 JSONL stream into an
// in-memory campaign model, a self-contained single-file HTML report, and
// an A/B stratum diff (DESIGN.md §5.13).
//
// The HTML is deliberately dependency-free — inline CSS, inline SVG, no
// scripts, no external fetches of any kind (the tests assert the file
// contains no src=/href= attribute at all) — so a report scp'd off a
// cluster node opens anywhere. Chart grammar follows the repo's dataviz
// conventions: magnitude (the per-(bit, layer) vulnerability heatmap) uses
// one sequential blue ramp light->dark; identity never relies on color
// alone (every mark carries a text <title> and the tables repeat the
// numbers); marks are thin with recessive axes.
//
// The model is tolerant of *interrupted* logs (a valid prefix is a valid
// report — the writer flushes per event) but strict about schema: a log
// whose first event is not a campaign_header, or whose envelope is
// malformed, throws with the offending line number. It is built one event
// at a time (fold_event), so a live reader — the campaign's /status
// endpoint — continues a model where it stopped instead of re-reading the
// log.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "report/json_parse.hpp"

namespace statfi::report {

/// One campaign reconstructed from its event log.
struct ObservatoryModel {
    // campaign_header
    std::string command;
    std::string model;
    std::string approach;
    std::string dtype;
    /// Number format the weights were stored in ("fp32", "fp16", "bf16",
    /// "int8") — the header's `format` field, falling back to `dtype` for
    /// logs written before the field existed. Drives matrix grouping: only
    /// same-format campaigns are expected to agree statistically.
    std::string format;
    std::string policy;
    std::uint64_t seed = 0;
    std::int64_t images = 0;
    double confidence = 0.99;
    double error_margin = 0.01;
    /// Fault-model spelling ("stuck-at", "flip", "mbu-k2", "activation")
    /// from the header, falling back to the plan event; empty for pre-fault-
    /// model logs. Drives stratum labeling: activation strata are graph
    /// nodes, mbu strata axis is the combo rank, not a bit position.
    std::string fault_model;
    std::string mitigation;  ///< mitigation descriptor ("none" when absent)

    // plan
    std::uint64_t universe = 0;
    std::uint64_t planned = 0;
    std::uint64_t strata_planned = 0;
    int bits = 0;
    struct Layer {
        int layer = -1;
        std::string name;
        std::uint64_t population = 0;
    };
    std::vector<Layer> layers;

    // phase_begin/phase_end pairs, aggregated by phase name in first-seen
    // order (nested and repeated phases sum their durations).
    struct Phase {
        std::string name;
        double seconds = 0.0;
        std::uint64_t count = 0;  ///< completed begin/end pairs
    };
    std::vector<Phase> phases;
    /// Phases begun but not yet ended, outermost first (nested PhaseScopes
    /// stack up; a campaign that is classifying has "classify" or
    /// "census" open).
    std::vector<std::string> open_phases;

    // stratum_update series, keyed by stratum id in first-seen order.
    struct Point {
        std::uint64_t done = 0;
        std::uint64_t critical = 0;
        double p_hat = 0.0;
        double wilson_lo = 0.0, wilson_hi = 1.0;
        double wald_lo = 0.0, wald_hi = 1.0;
    };
    struct Stratum {
        std::uint64_t id = 0;
        int layer = -1;
        int bit = -1;
        std::uint64_t population = 0;
        std::uint64_t planned = 0;
        std::vector<Point> points;  ///< ascending done (emission order)

        [[nodiscard]] const Point* final_point() const noexcept {
            return points.empty() ? nullptr : &points.back();
        }
    };
    std::vector<Stratum> strata;
    /// stratum id -> index into strata (fold state).
    std::unordered_map<std::uint64_t, std::size_t> stratum_index;

    // shard lifecycle
    struct Shard {
        std::uint64_t shard = 0;
        std::uint64_t range_begin = 0, range_end = 0;
        bool ended = false;
        bool complete = false;
        std::uint64_t resumed = 0, classified = 0;
    };
    std::vector<Shard> shards;
    std::uint64_t merge_artifacts = 0;

    std::uint64_t resumed = 0;  ///< items replayed from a journal

    // campaign_end (absent for interrupted-mid-write logs)
    bool finished = false;
    bool complete = false;
    std::uint64_t injected = 0;
    std::uint64_t critical = 0;
    double wall_seconds = 0.0;

    std::uint64_t event_count = 0;
    double ts = 0.0;  ///< `ts` of the newest event (the log's own clock)

    /// Stratum for (layer, bit), or nullptr.
    [[nodiscard]] const Stratum* find_stratum(int layer, int bit) const;
};

/// Fold one more event into @p m: the step model_from_events repeats. The
/// event must be the log's line m.event_count (its `seq`).
/// @throws std::runtime_error on schema violations, naming the line.
void fold_event(ObservatoryModel& m, const JsonValue& event);

/// Build the model from parsed event-log lines (one JsonValue per line).
/// @throws std::runtime_error on schema violations, naming the line.
ObservatoryModel model_from_events(const std::vector<JsonValue>& events);

/// Read + parse + model a JSONL event log from disk.
/// @throws std::runtime_error when the file cannot be read or parsed.
ObservatoryModel load_event_log(const std::string& path);

/// Render the self-contained single-file HTML report. The document carries
/// a machine-readable marker `<meta name="statfi-strata" content="N">`
/// (N = number of strata with data) that CI smoke checks grep for.
std::string render_observatory_html(const ObservatoryModel& m,
                                    const std::string& title);

/// One stratum whose A/B confidence intervals no longer overlap.
struct StratumDiff {
    int layer = -1;
    int bit = -1;
    double a_p = 0.0, a_lo = 0.0, a_hi = 0.0;
    double b_p = 0.0, b_lo = 0.0, b_hi = 0.0;
    bool regression = false;  ///< true: B's interval sits above A's
};

struct DiffReport {
    std::vector<StratumDiff> flagged;  ///< disjoint-CI strata, A order
    std::uint64_t compared = 0;        ///< strata present in both logs
    std::uint64_t a_only = 0;
    std::uint64_t b_only = 0;
};

/// Compare final Wilson intervals stratum-by-stratum (matched on
/// (layer, bit)); a stratum is flagged when the intervals are disjoint —
/// the two campaigns disagree beyond their own stated uncertainty.
DiffReport diff_observatories(const ObservatoryModel& a,
                              const ObservatoryModel& b);

/// Render the A/B diff as the same kind of self-contained HTML document.
std::string render_diff_html(const ObservatoryModel& a,
                             const ObservatoryModel& b, const DiffReport& d,
                             const std::string& title);

/// Matrix comparison over N campaign logs (`report --matrix`): every
/// unordered pair is diffed; pairs whose campaigns used the *same* number
/// format and disagree are divergences (exit 3 in the CLI), pairs across
/// formats are informational — reduced precision legitimately shifts
/// vulnerability, that shift is what the matrix view is for.
struct MatrixReport {
    struct Pair {
        std::size_t a = 0, b = 0;  ///< indices into the input log list
        bool same_format = false;
        DiffReport diff;
    };
    std::vector<Pair> pairs;  ///< all (i, j), i < j, in input order

    /// Strata flagged across same-format pairs — the divergence count the
    /// CLI gates on and the HTML carries in `statfi-matrix-flagged`.
    [[nodiscard]] std::uint64_t divergent() const noexcept;
};

MatrixReport matrix_compare(const std::vector<ObservatoryModel>& logs);

/// Render N logs side by side — one heatmap section per log, a per-format
/// stratum comparison, and the divergence/cross-format tables — as one
/// self-contained HTML document. Machine-readable markers:
/// `statfi-matrix-logs` (N) and `statfi-matrix-flagged` (same-format
/// divergent strata). `labels` names each log (typically its path).
std::string render_matrix_html(const std::vector<ObservatoryModel>& logs,
                               const std::vector<std::string>& labels,
                               const MatrixReport& r,
                               const std::string& title);

}  // namespace statfi::report
