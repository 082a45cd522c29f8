#include "telemetry/eventlog.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "report/json.hpp"

namespace statfi::telemetry {

namespace {

/// Shortest representation that round-trips a double — matches JsonWriter's
/// number formatting so event-log values re-serialize identically.
std::string fmt_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    for (int precision = 1; precision < 17; ++precision) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == v) return shorter;
    }
    return buf;
}

}  // namespace

Event& Event::field(std::string_view key, const std::string& v) {
    payload_ += ",\"";
    payload_ += report::json_escape(std::string(key));
    payload_ += "\":\"";
    payload_ += report::json_escape(v);
    payload_ += '"';
    return *this;
}

Event& Event::field(std::string_view key, const char* v) {
    return field(key, std::string(v));
}

Event& Event::field(std::string_view key, double v) {
    payload_ += ",\"";
    payload_ += report::json_escape(std::string(key));
    payload_ += "\":";
    payload_ += fmt_number(v);
    return *this;
}

Event& Event::field(std::string_view key, std::uint64_t v) {
    payload_ += ",\"";
    payload_ += report::json_escape(std::string(key));
    payload_ += "\":";
    payload_ += std::to_string(v);
    return *this;
}

Event& Event::field(std::string_view key, std::int64_t v) {
    payload_ += ",\"";
    payload_ += report::json_escape(std::string(key));
    payload_ += "\":";
    payload_ += std::to_string(v);
    return *this;
}

Event& Event::field(std::string_view key, bool v) {
    payload_ += ",\"";
    payload_ += report::json_escape(std::string(key));
    payload_ += "\":";
    payload_ += v ? "true" : "false";
    return *this;
}

Event& Event::raw(std::string_view key, const std::string& json) {
    payload_ += ",\"";
    payload_ += report::json_escape(std::string(key));
    payload_ += "\":";
    payload_ += json;
    return *this;
}

EventLog::EventLog(std::ostream& out)
    : out_(out), epoch_(std::chrono::steady_clock::now()) {}

EventLog::EventLog(const std::string& path)
    : path_(path),
      owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      out_(*owned_),
      epoch_(std::chrono::steady_clock::now()) {
    if (!out_)
        throw std::runtime_error("eventlog: cannot open " + path +
                                 " for writing");
}

void EventLog::emit(const Event& event) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (seq_ == 0 && event.type() != "campaign_header")
        throw std::logic_error(
            "eventlog: first event must be campaign_header, got " +
            event.type());
    char ts_buf[32];
    std::snprintf(ts_buf, sizeof(ts_buf), "%.6f", seconds());
    out_ << "{\"v\":" << kSchemaVersion << ",\"seq\":" << seq_++
         << ",\"ts\":" << ts_buf << ",\"type\":\""
         << report::json_escape(event.type()) << "\"" << trace_fields_
         << event.payload() << "}\n";
    out_.flush();
}

void EventLog::set_trace(const TraceContext& context) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!context.valid()) {
        trace_fields_.clear();
        return;
    }
    trace_fields_ = ",\"trace_id\":\"" + format_trace_id(context.trace_id) +
                    "\",\"span_id\":\"" + format_trace_id(context.span_id) +
                    "\"";
}

double EventLog::seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::uint64_t EventLog::events_written() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

}  // namespace statfi::telemetry
