#pragma once
// EventLog: the structured JSONL record of one campaign — the durable,
// replayable narrative the Observatory report and fleet tooling consume
// (DESIGN.md §5.13).
//
// Schema contract (frozen at version 1; tools/check_eventlog.py enforces it
// in CI):
//  * one JSON object per line, compact (no newlines inside an event);
//  * every event carries {"v":1,"seq":N,"ts":S,"type":"..."} — `seq` is a
//    strictly monotonic 0-based sequence number, `ts` seconds since the log
//    was opened (6 decimals);
//  * the FIRST event must be type "campaign_header" (header-first
//    invariant; emit() throws std::logic_error on any other type at seq 0);
//  * everything except `ts` is a deterministic function of the campaign —
//    two runs of the same recipe + seed produce byte-identical logs modulo
//    the ts values (asserted in tests/telemetry/eventlog_test.cpp).
//
// Event types at v1 (required keys beyond the envelope):
//   campaign_header  schema, command, model, approach, dtype, policy, seed,
//                    images, confidence, error_margin
//   plan             universe, planned, strata, bits, layers[] — emitted
//                    once the fixture + plan exist (the header goes out
//                    first so fixture_build itself is captured)
//   phase_begin      phase
//   phase_end        phase, seconds
//   resume           replayed
//   stratum_update   stratum, layer, bit, population, planned, done,
//                    critical, p_hat, wilson_lo/hi, wald_lo/hi
//   shard_begin      shard, range_begin, range_end
//   shard_end        shard, complete, resumed, classified
//   merge_artifact   shard, items, seconds
//   campaign_end     outcome ("complete"|"interrupted"), injected,
//                    critical, wall_seconds
//
// Writers append under a mutex and flush per event, so a crashed or
// interrupted campaign leaves a valid prefix and a live log can be tailed
// while the campaign runs. Like every telemetry sink the log only observes:
// campaign outcomes are bit-identical with it on or off.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/trace.hpp"

namespace statfi::telemetry {

/// One event under construction: envelope fields are stamped by EventLog,
/// payload fields are appended in call order (deterministic serialization).
class Event {
public:
    explicit Event(std::string type) : type_(std::move(type)) {}

    Event& field(std::string_view key, const std::string& v);
    Event& field(std::string_view key, const char* v);
    Event& field(std::string_view key, double v);
    Event& field(std::string_view key, std::uint64_t v);
    Event& field(std::string_view key, std::int64_t v);
    Event& field(std::string_view key, int v) {
        return field(key, static_cast<std::int64_t>(v));
    }
    Event& field(std::string_view key, bool v);
    /// Append a pre-serialized JSON value (arrays/objects built by the
    /// caller with JsonWriter).
    Event& raw(std::string_view key, const std::string& json);

    [[nodiscard]] const std::string& type() const noexcept { return type_; }
    [[nodiscard]] const std::string& payload() const noexcept {
        return payload_;
    }

private:
    std::string type_;
    std::string payload_;  ///< ",\"k\":v,..." fragment after the envelope
};

class EventLog {
public:
    static constexpr int kSchemaVersion = 1;
    static constexpr const char* kSchemaName = "statfi.eventlog.v1";

    /// Log into @p out (borrowed; must outlive the log). Used by tests and
    /// the in-memory report path.
    explicit EventLog(std::ostream& out);
    /// Log into a file at @p path (truncates). @throws std::runtime_error
    /// when the file cannot be opened.
    explicit EventLog(const std::string& path);

    /// Append one event. The first event must be of type "campaign_header"
    /// — any other type before the header throws std::logic_error (the
    /// header-first invariant validators rely on).
    void emit(const Event& event);

    /// Stamp a cross-process trace identity (fleet plane): every event
    /// emitted after this carries "trace_id" and "span_id" envelope fields
    /// (16-hex, constant for the life of the log). Unset (the default, or
    /// an invalid context) the envelope is byte-identical to pre-fleet
    /// logs. Call before the campaign_header so the whole log is stamped.
    void set_trace(const TraceContext& context);

    [[nodiscard]] std::uint64_t events_written() const noexcept;

    /// The file this log writes ("" for a log into a borrowed stream).
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// Seconds since the log was opened: the `ts` an event emitted now
    /// would carry.
    [[nodiscard]] double seconds() const;

private:
    std::string path_;
    std::unique_ptr<std::ostream> owned_;  ///< file-backed logs own the stream
    std::ostream& out_;
    mutable std::mutex mutex_;
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point epoch_;
    std::string trace_fields_;  ///< pre-rendered ',"trace_id":...' fragment
};

}  // namespace statfi::telemetry
