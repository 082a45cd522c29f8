#include "telemetry/session.hpp"

namespace statfi::telemetry {

namespace {

/// Latency buckets for one evaluate_group pass (up to ensemble_width
/// faults): on one AVX2 Xeon core a 4-image MicroNet census puts most
/// groups between 10 and 30us and none above 3ms; deep topologies over
/// many images reach seconds.
std::vector<double> evaluate_bounds() {
    return {1e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 1e-1, 1.0};
}

/// Checkpoint flush latency: page-cache appends are ~10us; a slow/remote
/// filesystem shows up in the tail buckets.
std::vector<double> flush_bounds() {
    return {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0};
}

}  // namespace

Session::Session(SessionOptions options) : options_(options) {
    ids_.faults_total = metrics_.add_counter(
        "statfi_faults_total", "Faults classified (including masked)");
    ids_.masked_total = metrics_.add_counter(
        "statfi_faults_masked_total",
        "Masked stuck-at faults short-circuited without inference");
    ids_.critical_total = metrics_.add_counter(
        "statfi_faults_critical_total", "Faults classified Critical");
    ids_.inferences_total = metrics_.add_counter(
        "statfi_inferences_total",
        "Lane-image pairs classified (faulty inferences); a lane retired "
        "early counts once");
    ids_.lanes_retired_total = metrics_.add_counter(
        "statfi_lanes_retired_total",
        "Lane-image pairs retired before the logits, their activations "
        "golden again bit for bit");
    ids_.forward_ns_total = metrics_.add_counter(
        "statfi_forward_nanoseconds_total",
        "Nanoseconds spent in faulty forward passes");
    ids_.journal_records_total = metrics_.add_counter(
        "statfi_journal_records_total",
        "Outcome records appended to the checkpoint journal");
    ids_.checkpoint_flushes_total = metrics_.add_counter(
        "statfi_checkpoint_flushes_total", "Checkpoint journal flushes");
    ids_.journal_resumed_total = metrics_.add_counter(
        "statfi_journal_resumed_total",
        "Outcomes replayed from a checkpoint journal at startup");
    ids_.merge_artifacts_total = metrics_.add_counter(
        "statfi_shard_merge_artifacts_total",
        "Shard result artifacts validated and merged");
    ids_.merge_items_total = metrics_.add_counter(
        "statfi_shard_merge_items_total", "Items pooled by shard merges");
    ids_.worker_count = metrics_.add_gauge(
        "statfi_worker_count", "Engine workers bound to this session");
    ids_.golden_accuracy = metrics_.add_gauge(
        "statfi_golden_accuracy",
        "Golden top-1 accuracy on the evaluation set");
    ids_.evaluate_seconds = metrics_.add_histogram(
        "statfi_evaluate_seconds",
        "Classification latency of one evaluate_group pass",
        evaluate_bounds());
    ids_.flush_seconds = metrics_.add_histogram(
        "statfi_checkpoint_flush_seconds", "Checkpoint flush latency",
        flush_bounds());
    if (options_.enable_perf) perf_.open();
    if (options_.trace_context.valid())
        trace_.set_context(options_.trace_context);
}

void Session::add_perf_phase(const std::string& phase,
                             const PerfSample& delta) {
    if (!delta.valid) return;
    std::lock_guard<std::mutex> lock(perf_mutex_);
    for (auto& [name, sample] : perf_phases_) {
        if (name == phase) {
            sample += delta;
            return;
        }
    }
    perf_phases_.emplace_back(phase, delta);
}

std::vector<std::pair<std::string, PerfSample>> Session::perf_phases() const {
    std::lock_guard<std::mutex> lock(perf_mutex_);
    return perf_phases_;
}

PhaseScope::PhaseScope(Session* session, std::string phase, std::uint32_t tid)
    : session_(session), phase_(std::move(phase)) {
    if (!session_) return;
    span_ = Span(session_->trace(), phase_, tid);
    if (session_->perf_enabled())
        perf_start_ = session_->perf_probe().read();
    start_ = std::chrono::steady_clock::now();
    if (EventLog* log = session_->events())
        log->emit(Event("phase_begin").field("phase", phase_));
}

void PhaseScope::close() {
    if (!session_) return;
    span_.close();
    if (session_->perf_enabled() && perf_start_.valid)
        session_->add_perf_phase(
            phase_, session_->perf_probe().delta_since(perf_start_));
    if (EventLog* log = session_->events()) {
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
        log->emit(Event("phase_end")
                      .field("phase", phase_)
                      .field("seconds", seconds));
    }
    session_ = nullptr;
}

}  // namespace statfi::telemetry
