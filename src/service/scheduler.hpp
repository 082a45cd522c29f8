#pragma once
// Scheduler: the daemon's worker pool, executing queued jobs end-to-end
// through the UNMODIFIED shard pipeline.
//
// Each worker claims one job and carries it through the same stages the
// CLI exposes as separate commands — freeze the recipe into an SFIM
// manifest (shard plan), run every shard in-process via shard::run_shard
// (shard run --resume), merge and write artifacts (shard merge + report).
// Because every stage is the existing code path, a service-run campaign is
// bit-identical to a CLI-run one by construction, and the service's
// caching falls out of the pipeline's own durability:
//
//   * full hit   — the cache entry already has result.json / events.jsonl /
//                  report.html: the job completes without building a
//                  fixture or running one inference;
//   * plan hit   — the entry has a frozen manifest: planning (including
//                  the data-aware analysis and golden pass it implies) is
//                  skipped and the pinned partition is reused;
//   * shard hit  — shard_result_valid() results are skipped, journals of
//                  interrupted shards are resumed (the runner's own
//                  --resume semantics).
//
// Shutdown: stop() fires an internal cancellation token that every
// in-flight shard run polls; the engine checkpoints to its journal, the
// job transitions back to Queued (persisted), and the worker joins. A
// restarted daemon re-claims the job and resumes from the journals.
// Jobs-level concurrency (not shard-level): N workers run N campaigns
// concurrently, and one campaign's shards run sequentially in its worker —
// matching the service's goal of multi-campaign throughput with bounded
// memory (one fixture per worker).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "service/cache.hpp"
#include "service/events.hpp"
#include "service/queue.hpp"

namespace statfi::service {

struct SchedulerOptions {
    std::size_t workers = 2;
    std::size_t engine_threads = 1;  ///< engine workers per shard run
    /// Fleet observability plane (DESIGN.md decision 18): per-job trace
    /// correlation and the durable metrics history /fleet reads. Observes
    /// only — campaign outcomes are bit-identical with it off.
    bool fleet = true;
};

class Scheduler {
public:
    /// @p queue and @p cache are borrowed and must outlive the scheduler;
    /// @p log may be null (no service event log).
    Scheduler(JobQueue& queue, ResultCache& cache, ServiceLog* log,
              SchedulerOptions options);
    ~Scheduler();

    void start();
    /// Cooperative shutdown: cancel in-flight shard runs (they checkpoint),
    /// requeue their jobs, join every worker. Idempotent.
    void stop();

    [[nodiscard]] std::uint64_t jobs_completed() const noexcept {
        return completed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t jobs_failed() const noexcept {
        return failed_.load(std::memory_order_relaxed);
    }
    /// Workers currently executing a job.
    [[nodiscard]] std::size_t active() const noexcept {
        return active_.load(std::memory_order_relaxed);
    }

private:
    void worker_loop(std::size_t worker);
    void run_job(Job job, std::size_t worker);
    [[nodiscard]] bool stopping() const noexcept {
        return cancel_.stop_requested();
    }

    JobQueue& queue_;
    ResultCache& cache_;
    ServiceLog* log_;
    SchedulerOptions options_;
    core::CancellationToken cancel_;
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::size_t> active_{0};
    std::vector<std::thread> workers_;
};

}  // namespace statfi::service
