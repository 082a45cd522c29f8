#pragma once
// ServiceDaemon: the long-running StatFI service — HTTP front end, durable
// job queue, worker-pool scheduler, and content-addressed result cache
// wired together under one state directory (`statfi serve`).
//
//   <state>/queue.sfiq     persistent job queue (framed, CRC'd, atomic)
//   <state>/cache/<fp>/    one content-addressed entry per recipe
//   <state>/service.jsonl  service event log (or --log-out's path)
//
// HTTP surface (loopback only, inherited from telemetry::HttpServer):
//   POST /campaigns                     submit a recipe (JSON body);
//                                       202 {id, fingerprint, cached} or
//                                       200 {id, deduplicated:true} when an
//                                       identical recipe is already in
//                                       flight; 400 names the first problem
//   GET  /campaigns                     all jobs, summarized
//   GET  /campaigns/<id>[/status]       one job's full JSON status
//   GET  /campaigns/<id>/metrics        per-job Prometheus gauges
//   GET  /campaigns/<id>/events         the campaign's JSONL event log;
//                                       ?follow=1 switches to a chunked
//                                       live tail that ends when the job
//                                       turns terminal
//   GET  /campaigns/<id>/history        durable metrics history (JSON view
//                                       of the cache entry's metrics.tsf)
//   GET  /campaigns/<id>/trace          merged Chrome trace (daemon spans +
//                                       every shard, one trace_id)
//   GET  /campaigns/<id>/report.html    self-contained observatory report
//   GET  /campaigns/<id>/result.json    deterministic merged result
//   GET  /fleet                         every job's record plus its
//                                       convergence (a running job's from
//                                       its metrics.tsf), worker
//                                       utilization, cache totals
//   GET  /healthz                       liveness + queue depth
//   GET  /                              text index
//
// Artifact endpoints serve straight from the cache entry, so many clients
// can poll and download concurrently without touching the scheduler.

#include <cstdint>
#include <string>

#include "service/cache.hpp"
#include "service/events.hpp"
#include "service/queue.hpp"
#include "service/scheduler.hpp"
#include "telemetry/http.hpp"

namespace statfi::service {

struct DaemonOptions {
    std::uint16_t port = 0;          ///< 0 picks a free port
    std::size_t workers = 2;         ///< concurrent campaigns
    std::string state_dir;           ///< required
    std::uint32_t default_shards = 2;  ///< partition width per job
    std::size_t engine_threads = 1;  ///< engine workers per shard run
    std::string log_path;            ///< "" = <state>/service.jsonl
    std::size_t max_request_bytes = 1 << 20;
    /// Fleet observability plane (traces, the metrics history /fleet reads).
    /// Off disables only observation — outcomes are bit-identical.
    bool fleet = true;
};

class ServiceDaemon {
public:
    /// Open the state directory (created if absent), load the queue —
    /// jobs accepted by a previous life come back Queued — and bind the
    /// port. Nothing runs until start().
    /// @throws std::invalid_argument when state_dir is empty and
    /// std::runtime_error when the state cannot be opened or the port
    /// cannot be bound.
    explicit ServiceDaemon(const DaemonOptions& options);
    ~ServiceDaemon();

    void start();
    /// Graceful shutdown: stop accepting HTTP, cancel in-flight shards
    /// (they checkpoint and requeue), join everything. Idempotent.
    void stop();

    [[nodiscard]] std::uint16_t port() const noexcept { return http_.port(); }
    [[nodiscard]] JobQueue& queue() noexcept { return queue_; }
    [[nodiscard]] ResultCache& cache() noexcept { return cache_; }

private:
    telemetry::HttpResponse post_campaign(const telemetry::HttpRequest& req);
    telemetry::HttpResponse list_campaigns() const;
    telemetry::HttpResponse campaign_route(
        const telemetry::HttpRequest& req) const;
    telemetry::HttpResponse fleet_view() const;
    telemetry::HttpResponse follow_events(std::uint64_t id,
                                          const std::string& path) const;
    telemetry::HttpResponse healthz() const;

    DaemonOptions options_;
    ResultCache cache_;
    JobQueue queue_;
    ServiceLog log_;
    Scheduler scheduler_;
    telemetry::HttpServer http_;
};

}  // namespace statfi::service
