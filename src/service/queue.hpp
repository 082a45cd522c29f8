#pragma once
// Persistent job queue: the daemon's crash-safe record of every accepted
// campaign submission.
//
// Durability discipline matches the repo's other artifacts (DESIGN.md §16):
// the whole queue is one framed "SFIQ" file ([magic][version][payload]
// [CRC32], written via temp-file + rename), rewritten atomically on every
// state transition. A reader therefore sees either the previous complete
// queue or the new one — never a torn file — and any bit rot is caught by
// the frame checksum at load. The queue is small (jobs, not items), so the
// whole-file rewrite costs microseconds; per-item durability lives where
// it belongs, in the shard runners' checkpoint journals.
//
// Restart semantics: non-terminal states (Planning/Running/Merging)
// collapse back to Queued on load — whatever was in flight when the
// process died is simply re-claimed. No work is lost or repeated because
// the real progress lives in the cache entry's shard results and journals:
// the re-run skips valid shard results and resumes interrupted ones.
//
// Recipes persist as their canonical JSON (service/recipe_json) and are
// re-parsed on load, so the queue file never encodes recipe structure
// twice and a queue written by one daemon version rehydrates exactly like
// a fresh submission.
//
// Wake rule: the queue is also the daemon's event source. A version
// counter, guarded by the queue mutex, is bumped by every persisted
// transition (submit, claim, update) and by wake(), and each bump notifies
// every waiter of one condition variable. The scheduler's workers block in
// wait_claim() and the events?follow=1 streams in wait_change(), so neither
// polls. Whoever sets a stop flag a waiter's predicate reads, or appends an
// event-log line no transition follows, calls wake(), which takes the
// mutex: a waiter between its predicate check and its wait cannot miss it.
//
// Every save serialises into one reused buffer, so a transition allocates
// nothing in proportion to the jobs the queue holds.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "shard/manifest.hpp"

namespace statfi::service {

enum class JobState : std::uint8_t {
    Queued = 0,
    Planning = 1,  ///< claimed; freezing the manifest
    Running = 2,   ///< executing shards
    Merging = 3,   ///< all shards done; merging + writing artifacts
    Done = 4,
    Failed = 5,
};

const char* to_string(JobState state) noexcept;

struct Job {
    std::uint64_t id = 0;
    std::string fingerprint;   ///< recipe content address (cache key)
    std::string recipe_json;   ///< canonical recipe JSON (persisted form)
    shard::CampaignRecipe recipe;
    std::uint32_t shards = 2;  ///< requested partition width
    JobState state = JobState::Queued;
    /// Fleet trace id (DESIGN.md decision 18): assigned at submission,
    /// persisted so a restarted daemon resumes the job under the SAME
    /// trace. 0 only for jobs queued before the fleet plane existed.
    std::uint64_t trace_id = 0;

    // Progress/outcome counters (reset to zero when a restart re-queues).
    bool cache_hit = false;           ///< completed with zero inference
    std::uint64_t shards_total = 0;
    std::uint64_t shards_done = 0;
    std::uint64_t cached_shards = 0;  ///< shard results reused from the cache
    std::uint64_t resumed = 0;        ///< items replayed from journals
    std::uint64_t classified = 0;     ///< items newly classified
    std::uint64_t critical = 0;
    std::uint64_t injected = 0;       ///< total items of the campaign
    std::string error;                ///< Failed: what()

    [[nodiscard]] bool terminal() const noexcept {
        return state == JobState::Done || state == JobState::Failed;
    }
};

class JobQueue {
public:
    /// Open (or create) the queue persisted at @p path. @throws
    /// std::runtime_error when an existing file is corrupt — a damaged
    /// queue must stop the daemon loudly, not silently drop jobs.
    explicit JobQueue(std::string path);

    /// Append @p job (id assigned here), persist, return the id.
    /// @p on_queued sees the job with its id under the queue mutex, before
    /// any worker can claim it, so whatever it logs precedes the job's
    /// scheduling. It must not call back into the queue.
    std::uint64_t submit(Job job,
                         const std::function<void(const Job&)>& on_queued = {});

    /// Claim the oldest Queued job: its state becomes Planning, the queue
    /// persists, and a copy is returned. Empty when nothing is queued.
    std::optional<Job> claim();

    /// claim(), waiting while nothing is queued. Empty once @p stop returns
    /// true; @p stop is read under the queue mutex, so whoever makes it
    /// true must then call wake().
    std::optional<Job> wait_claim(const std::function<bool()>& stop);

    /// Store @p job back by id (state transitions, counters) and persist.
    void update(const Job& job);

    /// The change count: it moves on every transition and every wake().
    [[nodiscard]] std::uint64_t version() const;

    /// Wait until version() differs from @p seen, @p stop returns true or
    /// @p deadline passes; returns at once when a change landed after
    /// @p seen was read. Returns the version it saw last.
    std::uint64_t wait_change(std::uint64_t seen,
                              const std::function<bool()>& stop,
                              std::chrono::steady_clock::time_point deadline)
        const;

    /// Bump the version and wake every waiter, with no transition: after a
    /// stop flag is set, or an event-log line no transition follows.
    void wake();

    [[nodiscard]] std::optional<Job> get(std::uint64_t id) const;
    [[nodiscard]] std::vector<Job> snapshot() const;

    /// The id of a non-terminal job with @p fingerprint, if any — the
    /// daemon folds duplicate in-flight submissions onto it instead of
    /// racing two workers over one cache entry.
    [[nodiscard]] std::optional<std::uint64_t> active_with_fingerprint(
        const std::string& fingerprint) const;

    [[nodiscard]] std::size_t queued() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::optional<Job> claim_locked();
    /// Bump the version, notify and persist; the caller holds mutex_.
    void save_locked();

    mutable std::mutex mutex_;
    mutable std::condition_variable changed_;
    std::uint64_t version_ = 0;
    std::string path_;
    std::vector<Job> jobs_;
    std::uint64_t next_id_ = 1;
    std::string payload_;  ///< save_locked's reused serialisation buffer
};

}  // namespace statfi::service
