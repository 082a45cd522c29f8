#pragma once
// Session: one telemetry context per campaign — the object the engine, the
// durable census, and the shard runner/merger all report into.
//
// Null-sink contract: every producer takes `Session*` and treats nullptr as
// "telemetry off". The disabled path is a single pointer compare — no clock
// reads, no atomics — so campaigns without telemetry pay nothing, and
// results are bit-identical either way because telemetry only ever observes
// (asserted in tests/telemetry/identity_test.cpp).
//
// The session pre-registers the well-known StatFI metric schema (ids())
// so the hot path never does name lookups, then freezes the registry when
// the engine binds its worker count. The generic MetricsRegistry API stays
// available for ad-hoc metrics registered before bind_workers().

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/eventlog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/trace.hpp"

namespace statfi::telemetry {

struct SessionOptions {
    bool enable_trace = true;  ///< record phase spans (Chrome trace export)
    bool enable_perf = false;  ///< open perf_event_open hardware counters
    /// Cross-process trace identity (fleet plane). When valid it is stamped
    /// onto the trace recorder and every event log this session opens, so
    /// logs/traces from daemon, driver and shard children correlate.
    TraceContext trace_context{};
};

/// Well-known metric ids, registered by the Session constructor.
struct MetricIds {
    // hot-path counters (per worker)
    MetricId faults_total;        ///< faults classified (incl. masked)
    MetricId masked_total;        ///< masked short-circuits (no inference)
    MetricId critical_total;      ///< faults classified Critical
    MetricId inferences_total;    ///< lane-image pairs classified
    MetricId lanes_retired_total; ///< of those, retired early as golden
    MetricId forward_ns_total;    ///< nanoseconds in faulty forward passes
    // durability counters
    MetricId journal_records_total;
    MetricId checkpoint_flushes_total;
    MetricId journal_resumed_total;
    // shard merge counters
    MetricId merge_artifacts_total;
    MetricId merge_items_total;
    // gauges
    MetricId worker_count;
    MetricId golden_accuracy;
    // histograms
    MetricId evaluate_seconds;  ///< latency of one evaluate_group pass
    MetricId flush_seconds;     ///< checkpoint flush latency
};

class Session {
public:
    explicit Session(SessionOptions options = {});

    [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
    [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
        return metrics_;
    }
    [[nodiscard]] const MetricIds& ids() const noexcept { return ids_; }

    /// nullptr when tracing is disabled — Span on a null recorder is inert.
    [[nodiscard]] TraceRecorder* trace() noexcept {
        return options_.enable_trace ? &trace_ : nullptr;
    }
    [[nodiscard]] const TraceRecorder* trace() const noexcept {
        return options_.enable_trace ? &trace_ : nullptr;
    }

    /// Freeze the metric schema for @p workers workers (idempotent for the
    /// same count). Called by the engine; shard runners reuse the engine's
    /// binding.
    void bind_workers(std::size_t workers) { metrics_.freeze(workers); }

    // --- observatory -------------------------------------------------------
    /// Structured JSONL event log; nullptr when none is attached. Producers
    /// check the pointer and skip all event construction when it is null.
    [[nodiscard]] EventLog* events() noexcept { return eventlog_.get(); }
    /// Attach an event log writing to @p path (truncates; throws on open
    /// failure). The owner must emit the campaign_header before any
    /// PhaseScope opens — EventLog enforces the header-first invariant.
    void open_event_log(const std::string& path) {
        eventlog_ = std::make_unique<EventLog>(path);
        eventlog_->set_trace(options_.trace_context);
    }
    /// Attach an event log writing to a borrowed stream (tests, benches).
    void attach_event_log(std::ostream& out) {
        eventlog_ = std::make_unique<EventLog>(out);
        eventlog_->set_trace(options_.trace_context);
    }

    /// The cross-process trace identity this session runs under (invalid
    /// when the campaign is not part of a fleet).
    [[nodiscard]] const TraceContext& trace_context() const noexcept {
        return options_.trace_context;
    }

    // --- hardware counters -------------------------------------------------
    [[nodiscard]] bool perf_enabled() const noexcept {
        return perf_.available();
    }
    [[nodiscard]] const PerfProbe& perf_probe() const noexcept {
        return perf_;
    }
    /// Accumulate a per-phase hardware-counter delta (thread-safe).
    void add_perf_phase(const std::string& phase, const PerfSample& delta);
    /// Accumulated (phase, counters) pairs in first-seen order.
    [[nodiscard]] std::vector<std::pair<std::string, PerfSample>> perf_phases()
        const;

private:
    SessionOptions options_;
    MetricsRegistry metrics_;
    MetricIds ids_{};
    TraceRecorder trace_;
    PerfProbe perf_;
    mutable std::mutex perf_mutex_;
    std::vector<std::pair<std::string, PerfSample>> perf_phases_;
    std::unique_ptr<EventLog> eventlog_;
};

/// RAII campaign-phase scope: one trace span, one per-phase hardware
/// counter delta, and (when an event log is attached) paired phase_begin /
/// phase_end events with the measured duration — the events /status folds
/// into its phase stack. The engine brackets plan / golden pass / census /
/// checkpoint flush / shard merge with these. Inert when @p session is
/// null.
class PhaseScope {
public:
    PhaseScope() = default;
    PhaseScope(Session* session, std::string phase, std::uint32_t tid = 0);
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    ~PhaseScope() { close(); }

    /// End the phase early (idempotent).
    void close();

private:
    Session* session_ = nullptr;
    std::string phase_;
    Span span_;
    PerfSample perf_start_{};
    std::chrono::steady_clock::time_point start_{};
};

}  // namespace statfi::telemetry
