#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/convergence.hpp"
#include "stats/sampling.hpp"

namespace statfi::core {

CampaignEngine::CampaignEngine(const nn::Network& net,
                               const data::Dataset& eval,
                               ExecutorConfig config, std::size_t threads,
                               telemetry::Session* telemetry)
    : telemetry_(telemetry) {
    if (threads == 0)
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (telemetry_) telemetry_->bind_workers(threads);
    {
        // Worker construction runs the golden forward pass once per clone —
        // the dominant startup cost, so it gets its own phase span.
        telemetry::PhaseScope scope(telemetry_, "golden_pass");
        workers_.reserve(threads);
        for (std::size_t w = 0; w < threads; ++w) {
            workers_.push_back(std::make_unique<Worker>(net, eval, config));
            workers_.back()->core.set_telemetry(telemetry_, w);
        }
    }
    if (telemetry_) {
        auto& reg = telemetry_->metrics();
        reg.set_gauge(telemetry_->ids().worker_count,
                      static_cast<double>(threads));
        reg.set_gauge(telemetry_->ids().golden_accuracy, golden_accuracy());
    }
}

std::size_t CampaignEngine::worker_count() const noexcept {
    return workers_.size();
}

const ExecutorConfig& CampaignEngine::config() const noexcept {
    return workers_.front()->core.config();
}

double CampaignEngine::golden_accuracy() const {
    return workers_.front()->core.golden_accuracy();
}

const std::vector<int>& CampaignEngine::golden_predictions() const {
    return workers_.front()->core.golden_predictions();
}

std::uint64_t CampaignEngine::inference_count() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->core.inference_count();
    return total;
}

std::uint64_t CampaignEngine::retired_count() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->core.retired_count();
    return total;
}

ClassificationCore& CampaignEngine::core(std::size_t worker) {
    return workers_.at(worker)->core;
}

CampaignFingerprint CampaignEngine::fingerprint(
    const fault::FaultUniverse& universe, std::string model_id) const {
    return workers_.front()->core.fingerprint(universe, std::move(model_id));
}

CampaignPlan CampaignEngine::plan(const fault::FaultUniverse& universe,
                                  const CampaignSpec& spec) {
    telemetry::PhaseScope scope(telemetry_, "plan");
    switch (spec.approach) {
        case Approach::Exhaustive: return plan_exhaustive(universe);
        case Approach::NetworkWise:
            return plan_network_wise(universe, spec.sample);
        case Approach::LayerWise:
            return plan_layer_wise(universe, spec.sample);
        case Approach::DataUnaware:
            return plan_data_unaware(universe, spec.sample);
        case Approach::DataAware: {
            // Data-aware p(i) comes from per-bit weight criticality; combo
            // ranks and activation elements have no such profile.
            if (universe.kind() != fault::FaultModelKind::WeightStuckAt &&
                universe.kind() != fault::FaultModelKind::WeightBitFlip)
                throw std::invalid_argument(
                    "CampaignEngine::plan: data-aware planning needs "
                    "single-bit weight strata; fault model '" +
                    std::string(fault::to_string(universe.kind())) +
                    "' has none — use layer-wise or data-unaware instead");
            DataAwareConfig analysis = spec.analysis;
            analysis.dtype = config().dtype;
            nn::Network& net = workers_.front()->net;
            if (analysis.dtype == fault::DataType::Int8)
                analysis.quant.scale =
                    int8_analysis_scale(net, config().layer_quant);
            return plan_data_aware(universe, spec.sample,
                                   analyze_network(net, analysis));
        }
    }
    throw std::invalid_argument("CampaignEngine::plan: unknown approach");
}

std::vector<DrawnFault> draw_plan(const fault::FaultUniverse& universe,
                                  const CampaignPlan& plan, stats::Rng rng) {
    // Draw every sample up front, one forked stream per subpopulation, so
    // the drawn faults are a function of (plan, rng) alone — never of the
    // worker count or the partitioning.
    std::vector<DrawnFault> items;
    for (std::size_t s = 0; s < plan.subpops.size(); ++s) {
        const auto& sp = plan.subpops[s];
        auto stream = rng.fork(s);
        const std::uint64_t base = subpop_base(universe, sp);
        for (const std::uint64_t local :
             stats::sample_indices(sp.population, sp.sample_size, stream))
            items.push_back(DrawnFault{s, universe.decode(base + local)});
    }
    return items;
}

CampaignFingerprint item_space_fingerprint(CampaignFingerprint fp,
                                           std::uint64_t item_count) {
    fp.universe_size = item_count;
    fp.model_id += "#items";
    return fp;
}

namespace {

/// Outcome slot of a drawn item neither replayed nor classified (cancelled
/// run); only run_durable's tally has to tell those apart.
constexpr std::uint8_t kPending = 0xFF;

/// Heartbeat stride: about 64 beats per span, capped at 4096 (a power of
/// two, as ProgressReporter requires).
std::uint64_t heartbeat_stride(std::uint64_t span) {
    std::uint64_t stride = 1;
    while (stride * 64 < span && stride < 4096) stride <<= 1;
    return stride;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

bool power_of_two(std::uint64_t n) { return n && !(n & (n - 1)); }

/// Tally the drawn items [lo, lo + outcomes.size()) serially in canonical
/// item order, so tallies and the estimator updates emitted to @p log are a
/// function of (plan, rng, model) alone — byte-identical across worker
/// counts and resume points. Cadence: one stratum_update per stratum at
/// each power-of-two done count, plus a final point per stratum unless its
/// count already was one (done = 0 for strata an interruption left
/// untouched).
CampaignResult tally_items(const fault::FaultUniverse& universe,
                           const CampaignPlan& plan,
                           const std::vector<DrawnFault>& items,
                           std::uint64_t lo,
                           const std::vector<std::uint8_t>& outcomes,
                           telemetry::EventLog* log) {
    CampaignResult result = make_empty_result(
        static_cast<std::size_t>(universe.layer_count()), plan);
    for (std::uint64_t k = 0; k < outcomes.size(); ++k) {
        if (outcomes[k] == kPending) continue;
        const DrawnFault& item = items[lo + k];
        SubpopResult& tally = result.subpops[item.subpop];
        accumulate_outcome(tally, item.fault.layer,
                           static_cast<FaultOutcome>(outcomes[k]));
        if (log && power_of_two(tally.injected))
            emit_stratum_update(*log, item.subpop, tally.plan, tally.injected,
                                tally.critical, plan.spec.confidence);
    }
    for (std::size_t s = 0; log && s < result.subpops.size(); ++s) {
        const SubpopResult& sub = result.subpops[s];
        if (!power_of_two(sub.injected))
            emit_stratum_update(*log, s, sub.plan, sub.injected, sub.critical,
                                plan.spec.confidence);
    }
    return result;
}

/// The slice [lo, hi) of a @p total-item stream that @p options select (the
/// shard runner's hook); every count and heartbeat is relative to it.
std::pair<std::uint64_t, std::uint64_t> item_range(
    std::uint64_t total, const DurabilityOptions& options) {
    const std::uint64_t lo = options.range_begin;
    const std::uint64_t hi = options.range_end == 0 ? total : options.range_end;
    if (lo > hi || hi > total || (lo == hi && total > 0))
        throw std::invalid_argument(
            "CampaignEngine: item range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + ") is empty or exceeds the " +
            std::to_string(total) + "-item stream");
    return {lo, hi};
}

}  // namespace

RunStatus CampaignEngine::execute(const fault::FaultUniverse& universe,
                                  const std::vector<DrawnFault>* items,
                                  const DurabilityOptions& options,
                                  const ProgressFn& progress,
                                  std::span<std::uint8_t> out) {
    const std::uint64_t lo = options.range_begin;
    const std::uint64_t span = out.size();
    RunStatus run;

    // Resume: replay every journaled record, then classify the remainder.
    std::optional<CampaignJournal> journal;
    std::vector<bool> replayed;  // read-only once the workers start
    if (!options.journal_path.empty()) {
        telemetry::PhaseScope replay_scope(telemetry_, "resume_replay");
        CampaignFingerprint fp = fingerprint(universe, options.model_id);
        if (items) fp = item_space_fingerprint(std::move(fp), items->size());
        // Only a file that was there can be recovered: a missing journal
        // is a fresh start, not a recovery.
        const bool existed = std::filesystem::exists(options.journal_path);
        const auto recovery =
            CampaignJournal::recover(options.journal_path, fp);
        telemetry::EventLog* log = telemetry_ ? telemetry_->events() : nullptr;
        if (existed && !recovery.note.empty()) {
            std::cerr << "statfi: " << recovery.note << "\n";
            if (log)
                log->emit(telemetry::Event("journal_recovered")
                              .field("valid_bytes", recovery.valid_bytes)
                              .field("tail_dropped", recovery.tail_dropped)
                              .field("note", recovery.note));
        }
        replayed.assign(span, false);
        for (const JournalRecord& rec : recovery.records) {
            // Out-of-range records are defensive no-ops: an index past the
            // stream would be corruption (CRC passed, so unlikely), one
            // outside the range a journal shared across shards.
            if (rec.fault_index < lo || rec.fault_index - lo >= span) continue;
            const std::uint64_t k = rec.fault_index - lo;
            if (!replayed[k]) ++run.resumed;
            replayed[k] = true;
            out[k] = rec.outcome;
        }
        journal.emplace(CampaignJournal::open(options.journal_path, fp,
                                              recovery.valid_bytes));
        if (telemetry_)
            telemetry_->metrics().inc(
                0, telemetry_->ids().journal_resumed_total, run.resumed);
        if (run.resumed && log)
            log->emit(
                telemetry::Event("resume").field("replayed", run.resumed));
    }

    // Sink-side telemetry (journal appends, flushes) happens under
    // sink_mutex, so it is serialized into worker 0's slot regardless of
    // which worker reached the sink — the mutex provides the single-writer
    // guarantee the registry's relaxed load+store increments need.
    const telemetry::MetricIds* ids = telemetry_ ? &telemetry_->ids() : nullptr;
    const auto flush = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        journal->flush();
        if (!telemetry_) return;
        telemetry_->metrics().observe(0, ids->flush_seconds, seconds_since(t0));
        telemetry_->metrics().inc(0, ids->checkpoint_flushes_total);
    };
    const std::uint64_t stride = heartbeat_stride(span);
    telemetry::ProgressReporter reporter(progress, span, run.resumed, stride);
    std::atomic<std::uint64_t> classified{0};
    std::atomic<bool> cancelled{false};
    std::mutex sink_mutex;  // guards journal appends + progress callback
    std::uint64_t since_flush = 0;

    // Per-worker contiguous chunks of the span, walked in ascending order;
    // each outcome slot is written by exactly one worker, so only the
    // journal/progress sink needs the lock.
    const std::size_t workers = workers_.size();
    const std::uint64_t chunk = (span + workers - 1) / workers;
    const std::size_t width = std::max<std::size_t>(1, config().ensemble_width);
    const auto work = [&](std::size_t w) {
        const std::uint64_t end = std::min((w + 1) * chunk, span);
        std::vector<fault::Fault> batch;
        std::vector<std::uint64_t> idx;  // local item index per batch member
        std::vector<FaultOutcome> outs;
        for (std::uint64_t i = w * chunk; i < end;) {
            // Gather consecutive pending items sharing (layer, model). Both
            // streams run layer-slowest, so whole-width groups are the
            // common case; resumed items inside the window are stepped over.
            batch.clear();
            idx.clear();
            for (; i < end && batch.size() < width; ++i) {
                if (!replayed.empty() && replayed[i]) continue;
                const fault::Fault f =
                    items ? (*items)[lo + i].fault : universe.decode(lo + i);
                const fault::Fault& first = batch.empty() ? f : batch.front();
                if (f.layer != first.layer ||
                    !fault::same_ensemble_family(f.model, first.model))
                    break;
                batch.push_back(f);
                idx.push_back(i);
            }
            if (batch.empty()) return;  // the rest of the chunk was resumed
            if (cancelled.load(std::memory_order_relaxed) ||
                (options.cancel && options.cancel->stop_requested())) {
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
            outs.assign(batch.size(), FaultOutcome::NonCritical);
            workers_[w]->core.evaluate_group(batch, outs.data());
            for (std::size_t b = 0; b < batch.size(); ++b)
                out[idx[b]] = static_cast<std::uint8_t>(outs[b]);
            const std::uint64_t n =
                classified.fetch_add(batch.size(),
                                     std::memory_order_relaxed) +
                batch.size();
            // A group advances the count by its size, so a heartbeat is due
            // when the jump crossed a stride boundary.
            const std::uint64_t done = run.resumed + n;
            const bool beat =
                reporter && done / stride != (done - batch.size()) / stride;
            if (!journal && !beat) continue;
            std::lock_guard<std::mutex> lock(sink_mutex);
            for (std::size_t b = 0; journal && b < batch.size(); ++b) {
                journal->append(lo + idx[b],
                                static_cast<std::uint8_t>(outs[b]));
                if (telemetry_)
                    telemetry_->metrics().inc(0, ids->journal_records_total);
                if (++since_flush >= options.flush_interval) {
                    flush();
                    since_flush = 0;
                }
            }
            if (beat) reporter.report(done);
        }
    };
    {
        // jthread joins on scope exit, also when worker 0 throws.
        std::vector<std::jthread> threads;
        for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
        work(0);  // worker 0 runs on the calling thread
    }

    run.classified = classified.load();
    run.complete = !cancelled.load();
    if (journal) flush();
    if (run.complete) reporter.finish(run.classified);
    return run;
}

CampaignResult CampaignEngine::run(const fault::FaultUniverse& universe,
                                   const CampaignPlan& plan, stats::Rng rng,
                                   const CancellationToken* cancel) {
    DurabilityOptions options;
    options.cancel = cancel;
    return run_durable(universe, plan,
                       draw_plan(universe, plan, std::move(rng)), options)
        .result;
}

StatisticalRun CampaignEngine::run_durable(const fault::FaultUniverse& universe,
                                           const CampaignPlan& plan,
                                           const std::vector<DrawnFault>& items,
                                           const DurabilityOptions& options,
                                           const ProgressFn& progress) {
    telemetry::PhaseScope scope(telemetry_, "classify");
    const auto start = std::chrono::steady_clock::now();
    const auto [lo, hi] = item_range(items.size(), options);
    StatisticalRun run;
    run.outcomes.assign(hi - lo, kPending);
    static_cast<RunStatus&>(run) =
        execute(universe, &items, options, progress, run.outcomes);
    // Only full-range runs emit estimator updates: a shard's slice is not a
    // population.
    const bool full_range = hi - lo == items.size();
    run.result = tally_items(
        universe, plan, items, lo, run.outcomes,
        (telemetry_ && full_range) ? telemetry_->events() : nullptr);
    run.result.interrupted = !run.complete;
    run.result.wall_seconds = seconds_since(start);
    std::replace(run.outcomes.begin(), run.outcomes.end(), kPending,
                 static_cast<std::uint8_t>(FaultOutcome::NonCritical));
    return run;
}

CampaignResult CampaignEngine::run_campaign(const fault::FaultUniverse& universe,
                                            const CampaignSpec& spec,
                                            stats::Rng rng,
                                            const CancellationToken* cancel) {
    return run(universe, plan(universe, spec), rng, cancel);
}

ExhaustiveOutcomes CampaignEngine::run_exhaustive(
    const fault::FaultUniverse& universe, const ProgressFn& progress) {
    return run_exhaustive_durable(universe, DurabilityOptions{}, progress)
        .outcomes;
}

ExhaustiveRun CampaignEngine::run_exhaustive_durable(
    const fault::FaultUniverse& universe, const DurabilityOptions& options,
    const ProgressFn& progress) {
    telemetry::PhaseScope census_scope(telemetry_, "census");
    const auto [lo, hi] = item_range(universe.total(), options);
    ExhaustiveRun run;
    run.outcomes = ExhaustiveOutcomes(universe.total());
    static_cast<RunStatus&>(run) =
        execute(universe, nullptr, options, progress,
                run.outcomes.bytes().subspan(lo, hi - lo));
    if (telemetry_ && telemetry_->events() && run.complete &&
        hi - lo == universe.total()) {
        // Exact per-(layer, bit) strata of a full census. Range-restricted
        // (shard) runs skip this — their slice is not a population, the
        // merger emits strata once all shards are pooled.
        emit_census_strata(*telemetry_->events(), universe, run.outcomes,
                           0.99);
    }
    return run;
}

}  // namespace statfi::core
