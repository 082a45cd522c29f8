#include "service/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "report/json.hpp"
#include "service/recipe_json.hpp"
#include "stats/intervals.hpp"
#include "telemetry/history.hpp"
#include "telemetry/trace.hpp"

namespace statfi::service {

namespace {

using telemetry::HttpRequest;
using telemetry::HttpResponse;

/// Validate options and make sure the state directory exists — called from
/// the first member initializer so every subsequent member can rely on it.
DaemonOptions prepare(DaemonOptions options) {
    if (options.state_dir.empty())
        throw std::invalid_argument("service: state_dir must be set");
    std::error_code ec;
    std::filesystem::create_directories(options.state_dir, ec);
    if (ec)
        throw std::runtime_error("service: cannot create state directory " +
                                 options.state_dir + ": " + ec.message());
    if (options.log_path.empty())
        options.log_path = options.state_dir + "/service.jsonl";
    if (options.default_shards == 0) options.default_shards = 1;
    return options;
}

telemetry::HttpServer::Options http_options(const DaemonOptions& options) {
    telemetry::HttpServer::Options http;
    http.port = options.port;
    http.handler_threads = 4;
    http.max_request_bytes = options.max_request_bytes;
    return http;
}

HttpResponse json_response(int status, const std::string& body) {
    return HttpResponse{status, "application/json", body + "\n"};
}

/// A job's convergence for /fleet. A running (or merging) job reads the
/// newest samples of the metrics.tsf its sampler writes, its rate taken
/// between the last two; every other job, or one with no sample yet, reads
/// its job record with rate 0.
struct FleetProgress {
    std::uint64_t faults = 0;
    std::uint64_t critical = 0;
    double faults_per_second = 0.0;
};

FleetProgress fleet_progress(const Job& job, const ResultCache& cache) {
    FleetProgress p{job.resumed + job.classified, job.critical, 0.0};
    if (job.state != JobState::Running && job.state != JobState::Merging)
        return p;
    std::vector<std::string> series;
    std::vector<telemetry::HistorySample> samples;
    try {
        const auto ring = telemetry::HistoryRing::load(
            ResultCache::history_path(cache.dir_of(job.fingerprint)));
        series = ring.series();
        samples = ring.samples();
    } catch (const std::exception&) {
        return p;  // the sampler has not written its first sample yet
    }
    const auto column = [&](const char* name) {
        return static_cast<std::size_t>(
            std::find(series.begin(), series.end(), name) - series.begin());
    };
    const std::size_t f = column("faults"), c = column("critical");
    if (samples.empty() || f == series.size() || c == series.size())
        return p;
    const telemetry::HistorySample& last = samples.back();
    p.faults = static_cast<std::uint64_t>(last.values[f]);
    p.critical = static_cast<std::uint64_t>(last.values[c]);
    if (samples.size() >= 2) {
        // A re-claimed job's sampler restarts its counters at zero after
        // the previous life's last sample; that step is no rate.
        const telemetry::HistorySample& prev = samples[samples.size() - 2];
        if (last.seconds > prev.seconds && last.values[f] >= prev.values[f])
            p.faults_per_second = (last.values[f] - prev.values[f]) /
                                  (last.seconds - prev.seconds);
    }
    return p;
}

void job_json_fields(report::JsonWriter& json, const Job& job) {
    json.field("id", job.id)
        .field("state", to_string(job.state))
        .field("fingerprint", job.fingerprint)
        .field("model", job.recipe.model)
        .field("approach", core::to_string(job.recipe.approach))
        .field("fault_model", job.recipe.fault_model.describe())
        .field("dtype", fault::to_string(job.recipe.dtype))
        .field("seed", job.recipe.seed)
        .field("shards", static_cast<std::uint64_t>(job.shards))
        .field("shards_total", job.shards_total)
        .field("shards_done", job.shards_done)
        .field("cached_shards", job.cached_shards)
        .field("cache_hit", job.cache_hit)
        .field("resumed", job.resumed)
        .field("classified", job.classified)
        .field("critical", job.critical)
        .field("injected", job.injected);
    if (job.trace_id != 0)
        json.field("trace_id", telemetry::format_trace_id(job.trace_id));
    if (!job.error.empty()) json.field("error", job.error);
}

std::string job_json(const Job& job) {
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object();
    job_json_fields(json, job);
    json.end_object();
    return out.str();
}

/// Per-job Prometheus gauges — enough for a dashboard to plot progress and
/// alert on failure without parsing JSON.
std::string job_metrics(const Job& job) {
    std::ostringstream out;
    const std::string label = "{job=\"" + std::to_string(job.id) + "\"}";
    out << "# TYPE statfi_job_shards_total gauge\n"
        << "statfi_job_shards_total" << label << " " << job.shards_total
        << "\n"
        << "# TYPE statfi_job_shards_done gauge\n"
        << "statfi_job_shards_done" << label << " " << job.shards_done << "\n"
        << "# TYPE statfi_job_cached_shards gauge\n"
        << "statfi_job_cached_shards" << label << " " << job.cached_shards
        << "\n"
        << "# TYPE statfi_job_resumed gauge\n"
        << "statfi_job_resumed" << label << " " << job.resumed << "\n"
        << "# TYPE statfi_job_classified gauge\n"
        << "statfi_job_classified" << label << " " << job.classified << "\n"
        << "# TYPE statfi_job_critical gauge\n"
        << "statfi_job_critical" << label << " " << job.critical << "\n"
        << "# TYPE statfi_job_done gauge\n"
        << "statfi_job_done" << label << " " << (job.terminal() ? 1 : 0)
        << "\n";
    return out.str();
}

}  // namespace

ServiceDaemon::ServiceDaemon(const DaemonOptions& options)
    : options_(prepare(options)),
      cache_(options_.state_dir + "/cache"),
      queue_(options_.state_dir + "/queue.sfiq"),
      log_(options_.log_path),
      scheduler_(queue_, cache_, &log_,
                 SchedulerOptions{options_.workers, options_.engine_threads,
                                  options_.fleet}),
      http_(http_options(options_)) {
    http_.route("POST", "/campaigns", [this](const HttpRequest& req) {
        return post_campaign(req);
    });
    http_.route("GET", "/campaigns",
                [this](const HttpRequest&) { return list_campaigns(); });
    http_.route_prefix("GET", "/campaigns/", [this](const HttpRequest& req) {
        return campaign_route(req);
    });
    http_.route("GET", "/fleet",
                [this](const HttpRequest&) { return fleet_view(); });
    http_.route("GET", "/healthz",
                [this](const HttpRequest&) { return healthz(); });
    http_.route("GET", "/", [](const HttpRequest&) {
        return HttpResponse{
            200, "text/plain",
            "statfi service\n"
            "  POST /campaigns                  submit a campaign recipe\n"
            "  GET  /campaigns                  list jobs\n"
            "  GET  /campaigns/<id>/status      job status JSON\n"
            "  GET  /campaigns/<id>/metrics     job Prometheus gauges\n"
            "  GET  /campaigns/<id>/events      campaign event log (JSONL;\n"
            "                                   ?follow=1 tails it live)\n"
            "  GET  /campaigns/<id>/history     durable metrics history\n"
            "  GET  /campaigns/<id>/trace       merged fleet Chrome trace\n"
            "  GET  /campaigns/<id>/report.html observatory report\n"
            "  GET  /campaigns/<id>/result.json merged result document\n"
            "  GET  /fleet                      all jobs + live progress\n"
            "  GET  /healthz                    liveness + queue depth\n"};
    });
}

ServiceDaemon::~ServiceDaemon() { stop(); }

void ServiceDaemon::start() {
    http_.start();
    scheduler_.start();
}

void ServiceDaemon::stop() {
    // The follow streams wait on the queue in the handler threads that
    // http_.stop() joins: release them first, through the queue mutex.
    stopping_.store(true, std::memory_order_relaxed);
    queue_.wake();
    http_.stop();
    scheduler_.stop();
}

HttpResponse ServiceDaemon::post_campaign(const HttpRequest& req) {
    Submission sub;
    try {
        sub = parse_submission(req.body);
    } catch (const std::invalid_argument& e) {
        return HttpResponse{400, "text/plain", std::string(e.what()) + "\n"};
    }
    Job job;
    job.recipe = sub.recipe;
    job.shards = sub.shards == 0 ? options_.default_shards : sub.shards;
    job.recipe_json = canonical_recipe_json(job.recipe);
    job.fingerprint = recipe_fingerprint(job.recipe);

    // An identical recipe already queued or running: point the client at
    // it rather than racing two workers over one cache entry. (Terminal
    // jobs do NOT dedupe — resubmitting a finished recipe creates a new
    // job that completes from the cache, which is the cache-hit path.)
    if (const auto active = queue_.active_with_fingerprint(job.fingerprint)) {
        job.id = *active;
        log_.job_submitted(job, /*deduplicated=*/true,
                           cache_.complete(job.fingerprint));
        std::ostringstream out;
        report::JsonWriter json(out, 0);
        json.begin_object()
            .field("id", *active)
            .field("fingerprint", job.fingerprint)
            .field("deduplicated", true)
            .end_object();
        return json_response(200, out.str());
    }

    const bool cached = cache_.complete(job.fingerprint);
    // Logged before a worker can claim the job, so its job_submitted line
    // precedes its job_scheduled and job_done. Lock order: queue, then
    // log; the worker path never holds the log's lock into the queue's.
    const std::uint64_t id = queue_.submit(job, [&](const Job& queued) {
        log_.job_submitted(queued, /*deduplicated=*/false, cached);
    });
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object()
        .field("id", id)
        .field("fingerprint", job.fingerprint)
        .field("state", "queued")
        .field("cached", cached)
        .end_object();
    return json_response(202, out.str());
}

HttpResponse ServiceDaemon::list_campaigns() const {
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object().key("jobs").begin_array();
    for (const Job& job : queue_.snapshot()) {
        json.begin_object();
        job_json_fields(json, job);
        json.end_object();
    }
    json.end_array().end_object();
    return json_response(200, out.str());
}

HttpResponse ServiceDaemon::campaign_route(const HttpRequest& req) const {
    // Target shape: /campaigns/<id>[/<artifact>].
    const std::string rest = req.target.substr(std::string("/campaigns/").size());
    const std::size_t slash = rest.find('/');
    const std::string id_text = rest.substr(0, slash);
    const std::string sub =
        slash == std::string::npos ? "" : rest.substr(slash + 1);
    if (id_text.empty() ||
        id_text.find_first_not_of("0123456789") != std::string::npos)
        return HttpResponse{404, "text/plain",
                            "campaign ids are decimal integers\n"};
    const std::uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);
    const std::optional<Job> job = queue_.get(id);
    if (!job)
        return HttpResponse{404, "text/plain",
                            "no campaign with id " + id_text + "\n"};

    if (sub.empty() || sub == "status")
        return json_response(200, job_json(*job));
    if (sub == "metrics")
        return HttpResponse{200, "text/plain; version=0.0.4",
                            job_metrics(*job)};

    const std::string dir = cache_.dir_of(job->fingerprint);
    const auto serve_file = [](const std::string& path,
                               const std::string& content_type,
                               const std::string& missing) {
        std::string text;
        if (!io::read_file(path, text))
            return HttpResponse{404, "text/plain", missing};
        return HttpResponse{200, content_type, std::move(text)};
    };
    if (sub == "events") {
        const std::string path = ResultCache::events_path(dir);
        if (req.query_flag("follow")) return follow_events(id, path);
        return serve_file(path, "application/x-ndjson",
                          "no events recorded for this campaign yet\n");
    }
    if (sub == "history") {
        std::ostringstream out;
        try {
            telemetry::HistoryRing::load(ResultCache::history_path(dir))
                .write_json(out);
        } catch (const std::exception&) {
            return HttpResponse{404, "text/plain",
                                "no metrics history for this campaign yet\n"};
        }
        return HttpResponse{200, "application/json", out.str() + "\n"};
    }
    if (sub == "trace")
        return serve_file(ResultCache::trace_path(dir), "application/json",
                          "trace not ready: the campaign has not "
                          "completed\n");
    if (sub == "report.html")
        return serve_file(ResultCache::report_html_path(dir), "text/html",
                          "report not ready: the campaign has not "
                          "completed\n");
    if (sub == "result.json" || sub == "result")
        return serve_file(ResultCache::result_json_path(dir),
                          "application/json",
                          "result not ready: the campaign has not "
                          "completed\n");
    return HttpResponse{404, "text/plain",
                        "unknown campaign endpoint '" + sub +
                            "' (status|metrics|events|history|trace|"
                            "report.html|result.json)\n"};
}

HttpResponse ServiceDaemon::follow_events(std::uint64_t id,
                                          const std::string& path) const {
    // Chunked live tail: stream whatever the log already holds, then new
    // bytes as the scheduler appends them, and finish once the job turns
    // terminal (one final drain catches the tail written while we checked).
    // Between drains it waits for the queue's version to move: the
    // scheduler follows every line it appends with a transition or a
    // wake(), and the version is read before the drain, so a line written
    // after the drain ends the wait at once. The sink goes false on client
    // disconnect or server stop, stop() ends the wait, and a safety
    // deadline bounds a follow of a job that never finishes.
    HttpResponse response(200, "application/x-ndjson", "");
    response.stream = [this, id, path](const telemetry::ChunkSink& sink) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::minutes(10);
        const auto stopping = [this] {
            return stopping_.load(std::memory_order_relaxed);
        };
        std::uint64_t offset = 0;
        const auto drain = [&]() -> bool {  // false = client gone
            std::string fresh;
            if (!io::read_from(path, offset, fresh)) return true;
            offset += fresh.size();
            return sink(fresh);
        };
        for (;;) {
            const std::uint64_t seen = queue_.version();
            if (!drain()) return;
            const std::optional<Job> job = queue_.get(id);
            if (!job || job->terminal()) {
                drain();
                return;
            }
            if (stopping() || std::chrono::steady_clock::now() > deadline)
                return;
            queue_.wait_change(seen, stopping, deadline);
        }
    };
    return response;
}

HttpResponse ServiceDaemon::fleet_view() const {
    // One document a dashboard polls: every known job with its state and
    // convergence progress (fleet_progress), plus worker utilization and
    // cache totals.
    std::uint64_t cache_hits = 0;
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object().key("jobs").begin_array();
    for (const Job& job : queue_.snapshot()) {
        if (job.cache_hit) ++cache_hits;
        const FleetProgress p = fleet_progress(job, cache_);
        // A job that reused cached shard results counts their criticals
        // but not their faults; the clamp keeps p_hat and Wilson's x <= n.
        const std::uint64_t critical = std::min(p.critical, p.faults);
        const stats::Interval ci =
            p.faults ? stats::wilson_interval(critical, p.faults, 0.95)
                     : stats::Interval{0.0, 1.0};
        json.begin_object();
        job_json_fields(json, job);
        json.field("faults", p.faults)
            .field("p_hat", p.faults ? static_cast<double>(critical) /
                                           static_cast<double>(p.faults)
                                     : 0.0)
            .field("ci_low", ci.lo)
            .field("ci_high", ci.hi)
            .field("faults_per_second", p.faults_per_second)
            .end_object();
    }
    json.end_array();
    json.key("workers")
        .begin_object()
        .field("total", static_cast<std::uint64_t>(options_.workers))
        .field("busy", static_cast<std::uint64_t>(scheduler_.active()))
        .end_object();
    json.key("totals")
        .begin_object()
        .field("jobs", static_cast<std::uint64_t>(queue_.size()))
        .field("queued", static_cast<std::uint64_t>(queue_.queued()))
        .field("completed", scheduler_.jobs_completed())
        .field("failed", scheduler_.jobs_failed())
        .field("cache_hits", cache_hits)
        .end_object();
    json.field("fleet", options_.fleet).end_object();
    return json_response(200, out.str());
}

HttpResponse ServiceDaemon::healthz() const {
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object()
        .field("status", "ok")
        .field("jobs", static_cast<std::uint64_t>(queue_.size()))
        .field("queued", static_cast<std::uint64_t>(queue_.queued()))
        .field("active", static_cast<std::uint64_t>(scheduler_.active()))
        .field("completed", scheduler_.jobs_completed())
        .field("failed", scheduler_.jobs_failed())
        .end_object();
    return json_response(200, out.str());
}

}  // namespace statfi::service
