#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/convergence.hpp"
#include "io/atomic_file.hpp"
#include "report/observatory.hpp"
#include "service/recipe_json.hpp"
#include "shard/driver.hpp"
#include "shard/fixture.hpp"
#include "shard/merge.hpp"
#include "shard/runner.hpp"
#include "shard/summary.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/history.hpp"
#include "telemetry/session.hpp"
#include "telemetry/trace.hpp"

namespace statfi::service {

namespace {

namespace fs = std::filesystem;

/// Fleet history sampler: one background thread per running job that
/// periodically folds the active shard Session's counters (plus the totals
/// of already-finished shards) into a HistoryRing and persists it to the
/// cache entry's metrics.tsf — the durable, crash-survivable progress curve
/// behind /campaigns/<id>/history, `statfi report` sparklines and the
/// daemon's /fleet view of a running job.
///
/// Thread-safety: sample() snapshots the shard session's registry while the
/// engine runs. The registry publishes its freeze atomically, so a sample
/// taken before the engine binds its workers reads zeros, and one taken
/// after is the documented-safe concurrent read against the injection hot
/// path.
class JobSampler {
public:
    explicit JobSampler(std::string history_path)
        : path_(std::move(history_path)),
          ring_(resume_ring(path_)),
          start_(std::chrono::steady_clock::now()) {
        const auto samples = ring_.samples();
        if (!samples.empty()) seconds_offset_ = samples.back().seconds;
        thread_ = std::thread([this] { loop(); });
    }

    JobSampler(const JobSampler&) = delete;
    JobSampler& operator=(const JobSampler&) = delete;
    ~JobSampler() { stop(); }

    /// Publish the session the next samples should read (nullptr detaches).
    void set_session(telemetry::Session* session) {
        std::lock_guard<std::mutex> lock(mutex_);
        session_ = session;
    }

    /// Fold a finishing shard's totals into the base and detach it — called
    /// by the worker BEFORE the shard Session is destroyed.
    void absorb(const telemetry::Session& session) {
        const Totals totals = totals_of(session.metrics().snapshot());
        std::lock_guard<std::mutex> lock(mutex_);
        session_ = nullptr;
        base_.add(totals);
    }

    /// Take one final sample, then join the thread. Idempotent.
    void stop() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopped_) return;
            stopped_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

private:
    struct Totals {
        double faults = 0, critical = 0, masked = 0, inferences = 0;
        double evaluate_seconds = 0;
        void add(const Totals& o) {
            faults += o.faults;
            critical += o.critical;
            masked += o.masked;
            inferences += o.inferences;
            evaluate_seconds += o.evaluate_seconds;
        }
    };

    static std::vector<std::string> series_names() {
        return {"faults", "critical", "masked", "inferences",
                "evaluate_seconds"};
    }

    /// A re-claimed job continues the history a previous life persisted —
    /// seconds stay monotonic via the offset captured in the constructor.
    /// Anything unreadable (absent, corrupt, older series set) starts fresh.
    static telemetry::HistoryRing resume_ring(const std::string& path) {
        try {
            telemetry::HistoryRing ring = telemetry::HistoryRing::load(path);
            if (ring.series() == series_names()) return ring;
        } catch (const std::exception&) {
        }
        return telemetry::HistoryRing(series_names());
    }

    static double counter_of(const telemetry::MetricsSnapshot& snap,
                             const char* name) {
        const telemetry::MetricValue* m = snap.find(name);
        return m ? static_cast<double>(m->counter) : 0.0;
    }

    static Totals totals_of(const telemetry::MetricsSnapshot& snap) {
        Totals t;
        t.faults = counter_of(snap, "statfi_faults_total");
        t.critical = counter_of(snap, "statfi_faults_critical_total");
        t.masked = counter_of(snap, "statfi_faults_masked_total");
        t.inferences = counter_of(snap, "statfi_inferences_total");
        if (const auto* h = snap.find("statfi_evaluate_seconds"))
            t.evaluate_seconds = h->sum;
        return t;
    }

    void sample() {
        Totals t;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            t = base_;
            if (session_) t.add(totals_of(session_->metrics().snapshot()));
        }
        const double seconds =
            seconds_offset_ +
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
        ring_.append(seconds, {t.faults, t.critical, t.masked, t.inferences,
                               t.evaluate_seconds});
        try {
            ring_.save(path_);
        } catch (const std::exception&) {
            // History is advisory: a full disk must not fail the campaign.
        }
    }

    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_.wait_for(lock, std::chrono::milliseconds(200),
                         [this] { return stopped_; });
            const bool last = stopped_;
            lock.unlock();
            sample();  // stop() still gets a final, completed-totals sample
            if (last) return;
            lock.lock();
        }
    }

    std::string path_;
    telemetry::HistoryRing ring_;
    std::chrono::steady_clock::time_point start_;
    double seconds_offset_ = 0.0;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopped_ = false;
    telemetry::Session* session_ = nullptr;
    Totals base_;
    std::thread thread_;
};

}  // namespace

Scheduler::Scheduler(JobQueue& queue, ResultCache& cache, ServiceLog* log,
                     SchedulerOptions options)
    : queue_(queue), cache_(cache), log_(log), options_(options) {}

Scheduler::~Scheduler() { stop(); }

void Scheduler::start() {
    if (!workers_.empty()) return;  // already started
    const std::size_t pool = options_.workers == 0 ? 1 : options_.workers;
    workers_.reserve(pool);
    for (std::size_t w = 0; w < pool; ++w)
        workers_.emplace_back(&Scheduler::worker_loop, this, w);
}

void Scheduler::stop() {
    cancel_.request_stop();
    // Through the queue mutex: a worker between its stop check and its wait
    // in wait_claim() sees the token or gets this notify.
    queue_.wake();
    for (std::thread& t : workers_)
        if (t.joinable()) t.join();
    workers_.clear();
}

void Scheduler::worker_loop(std::size_t worker) {
    while (std::optional<Job> job =
               queue_.wait_claim([this] { return stopping(); })) {
        active_.fetch_add(1, std::memory_order_relaxed);
        run_job(std::move(*job), worker);
        active_.fetch_sub(1, std::memory_order_relaxed);
    }
}

void Scheduler::run_job(Job job, std::size_t worker) {
    if (log_) log_->job_scheduled(job, worker);
    const auto job_start = std::chrono::steady_clock::now();
    // Fleet plane (DESIGN.md decision 18): every observer of this job —
    // the daemon-side trace spans, the campaign event log, each in-process
    // shard session — shares the trace identity persisted at submission.
    // All of it only observes; with fleet off none of it exists and the
    // campaign outcome is bit-identical (tests/service/fleet_test).
    const bool fleet = options_.fleet && job.trace_id != 0;
    telemetry::TraceContext job_ctx;
    if (fleet) {
        job_ctx.trace_id = job.trace_id;
        job_ctx.span_id = telemetry::derive_trace_id(
            "daemon:job:" + std::to_string(job.id));
    }
    telemetry::TraceRecorder daemon_trace;
    telemetry::TraceRecorder* const tracer = fleet ? &daemon_trace : nullptr;
    if (fleet) daemon_trace.set_context(job_ctx);
    // Shutdown hands the job back; the next claim resumes from the journals.
    const auto requeue = [&] {
        job.state = JobState::Queued;
        queue_.update(job);
    };
    try {
        const std::string dir = cache_.ensure_dir(job.fingerprint);
        if (!fs::exists(ResultCache::recipe_path(dir)))
            io::write_file_atomic(
                ResultCache::recipe_path(dir),
                [&](std::ostream& out) { out << job.recipe_json << "\n"; });

        // Full cache hit: the merged artifacts already exist — complete the
        // job without a fixture, a golden pass, or a single injection.
        if (cache_.complete(job.fingerprint)) {
            const auto manifest =
                shard::ShardManifest::load(ResultCache::manifest_path(dir));
            job.shards_total = manifest.shards.size();
            job.shards_done = job.cached_shards = job.shards_total;
            job.injected = manifest.item_count;
            job.cache_hit = true;
            job.state = JobState::Done;
            queue_.update(job);
            completed_.fetch_add(1, std::memory_order_relaxed);
            if (log_) log_->job_done(job, "cached");
            return;
        }

        if (stopping()) return requeue();  // shutdown won the race

        // Freeze (or reuse) the manifest. Reusing skips planning — the
        // data-aware analysis and its golden pass — AND pins the partition
        // the cached shard results were produced under, so a resubmission
        // with a different requested width still finds them.
        telemetry::Span plan_span(tracer, "service_plan");
        auto fx = shard::build_fixture(job.recipe);
        const std::string manifest_path = ResultCache::manifest_path(dir);
        shard::ShardManifest manifest;
        try {
            manifest = shard::ShardManifest::load(manifest_path);
        } catch (const std::exception&) {  // absent or damaged: freeze it
            manifest = shard::freeze_manifest(job.recipe, fx);
            // At most one shard per item: a tiny campaign runs fewer
            // shards than requested.
            const std::uint64_t want = job.shards == 0 ? 1 : job.shards;
            manifest.shards = shard::partition_items(
                manifest.item_count,
                static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(want, manifest.item_count)));
            manifest.save(manifest_path);
        }
        plan_span.close();

        // The per-campaign event log: header + plan now, shard lifecycle
        // as it happens, strata + end after the merge. Scoped so the file
        // is closed before the report renderer reads it back.
        const std::string events_path = ResultCache::events_path(dir);
        std::unique_ptr<JobSampler> sampler;
        {
            telemetry::EventLog events(events_path);
            if (fleet) events.set_trace(job_ctx);
            core::emit_campaign_header(
                events, shard::campaign_header(job.recipe, "serve"));
            shard::emit_manifest_plan(events, manifest, fx.universe);

            job.state = JobState::Running;
            job.shards_total = manifest.shards.size();
            job.injected = manifest.item_count;
            queue_.update(job);
            if (fleet)
                sampler = std::make_unique<JobSampler>(
                    ResultCache::history_path(dir));

            const auto shard_end = [&](std::uint32_t k, bool complete,
                                       std::uint64_t resumed,
                                       std::uint64_t classified, bool cached) {
                events.emit(telemetry::Event("shard_end")
                                .field("shard", std::uint64_t{k})
                                .field("complete", complete)
                                .field("resumed", resumed)
                                .field("classified", classified)
                                .field("cached", cached));
            };
            for (std::uint32_t k = 0; k < manifest.shards.size(); ++k) {
                if (stopping()) return requeue();
                events.emit(telemetry::Event("shard_begin")
                                .field("shard", std::uint64_t{k})
                                .field("range_begin", manifest.shards[k].begin)
                                .field("range_end", manifest.shards[k].end));
                // No transition follows until the shard ends: tell the
                // events?follow=1 streams now.
                queue_.wake();
                if (shard::shard_result_valid(manifest, manifest_path, k)) {
                    ++job.cached_shards;
                    ++job.shards_done;
                    queue_.update(job);
                    shard_end(k, true, 0, 0, /*cached=*/true);
                    continue;
                }
                shard::ShardRunOptions run_options;
                run_options.shard = k;
                run_options.resume = true;
                run_options.threads = options_.engine_threads;
                run_options.cancel = &cancel_;
                std::unique_ptr<telemetry::Session> shard_session;
                telemetry::Span shard_span(tracer,
                                           "shard_" + std::to_string(k));
                if (fleet) {
                    telemetry::SessionOptions session_options;
                    session_options.trace_context.trace_id = job.trace_id;
                    session_options.trace_context.parent_span_id =
                        job_ctx.span_id;
                    session_options.trace_context.span_id =
                        telemetry::derive_trace_id(
                            "shard:" + std::to_string(k) + ":" +
                            telemetry::format_trace_id(job.trace_id));
                    shard_session = std::make_unique<telemetry::Session>(
                        session_options);
                    run_options.telemetry = shard_session.get();
                    if (sampler) sampler->set_session(shard_session.get());
                }
                const shard::ShardRunReport run =
                    shard::run_shard(manifest, manifest_path, run_options);
                if (shard_session) {
                    if (sampler) sampler->absorb(*shard_session);
                    shard_span.close();
                    const std::string trace = shard::shard_trace_path(dir, k);
                    try {
                        // The shard's own Chrome trace, one file per shard
                        // in the cache entry — merged below and by
                        // `statfi trace merge`.
                        telemetry::export_trace_file(*shard_session, trace);
                    } catch (const std::exception& e) {
                        if (log_) log_->artifact_failed(job, trace, e.what());
                    }
                }
                shard_end(k, run.complete, run.resumed, run.classified,
                          /*cached=*/false);
                // Interrupted by shutdown: the engine already flushed its
                // journal, and the next claim resumes exactly here.
                if (!run.complete) return requeue();
                job.resumed += run.resumed;
                job.classified += run.classified;
                ++job.shards_done;
                queue_.update(job);
            }

            job.state = JobState::Merging;
            queue_.update(job);
            telemetry::Span merge_span(tracer, "service_merge");
            const shard::MergedCampaign merged =
                shard::merge_shards(manifest, manifest_path);
            merge_span.close();
            shard::emit_merged_strata(events, manifest, fx.universe, merged);
            if (merged.kind == shard::CampaignKind::Census)
                merged.outcomes.save(ResultCache::outcomes_path(dir));
            const std::uint64_t critical = merged.critical();
            core::emit_campaign_end(
                events, true, manifest.item_count, critical,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - job_start)
                    .count());
            io::write_file_atomic(
                ResultCache::result_json_path(dir), [&](std::ostream& out) {
                    shard::write_summary_json(
                        out,
                        shard::summarize(manifest.recipe, fx.universe, merged));
                });
            job.critical = critical;
        }

        // The job is about to turn terminal: flush the sampler's final,
        // completed-totals sample first so the persisted history ends on
        // the campaign's true counters.
        if (sampler) sampler->stop();
        sampler.reset();

        // Render the report from the log just written — the same pipeline
        // `statfi report --log` uses, so service reports and CLI reports
        // are one code path.
        telemetry::Span report_span(tracer, "service_report");
        const report::ObservatoryModel model =
            report::load_event_log(events_path);
        const std::string html = report::render_observatory_html(
            model, model.model + " " + model.command + " — statfi observatory");
        io::write_file_atomic(ResultCache::report_html_path(dir),
                              [&](std::ostream& out) { out << html; });
        report_span.close();

        // Stitch the daemon's spans with every shard's trace into the
        // entry's correlated timeline (served as /campaigns/<id>/trace).
        if (fleet) {
            const std::string trace = ResultCache::trace_path(dir);
            try {
                shard::merge_fleet_trace(
                    daemon_trace, "daemon", dir,
                    static_cast<std::uint32_t>(manifest.shards.size()), trace);
            } catch (const std::exception& e) {
                if (log_) log_->artifact_failed(job, trace, e.what());
            }
        }

        job.state = JobState::Done;
        queue_.update(job);
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (log_) log_->job_done(job, "complete");
    } catch (const std::exception& e) {
        job.state = JobState::Failed;
        job.error = e.what();
        queue_.update(job);
        failed_.fetch_add(1, std::memory_order_relaxed);
        if (log_) log_->job_done(job, "failed");
    }
}

}  // namespace statfi::service
