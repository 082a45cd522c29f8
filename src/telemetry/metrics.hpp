#pragma once
// MetricsRegistry: the numeric half of the telemetry subsystem.
//
// Design constraints (DESIGN.md §5.12):
//  * The injection hot loop runs ~10^4..10^5 faults/second per worker, so a
//    counter increment must never contend: every worker owns a private,
//    cache-line-padded slot per metric and only ever writes its own slot.
//    Slots are std::atomic<u64> accessed with relaxed ordering — a relaxed
//    store by the single owning worker costs the same as a plain store on
//    every target we build for, but makes concurrent snapshot() reads
//    well-defined (TSan-clean) instead of racy.
//  * Aggregation happens on snapshot(): values are summed across worker
//    slots at read time, so the hot path never touches shared state.
//  * The metric schema is frozen before workers start (freeze(workers)):
//    registration allocates descriptor entries only; freeze() sizes the
//    per-worker slot arrays once, so the hot path indexes fixed vectors and
//    never observes a reallocation.
//
// Counters are u64 monotonic. Gauges are process-wide doubles (set, not
// accumulated — worker identity is meaningless for "golden accuracy").
// Histograms have fixed, registration-time bucket bounds with Prometheus
// `le` semantics (value <= bound, inclusive; implicit +Inf overflow bucket)
// plus a running sum and count.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace statfi::telemetry {

/// Index into the registry's descriptor table. Valid only for the registry
/// that issued it.
using MetricId = std::size_t;

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Aggregated value of one metric, produced by MetricsRegistry::snapshot().
struct MetricValue {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0;  ///< Counter: sum over workers
    double gauge = 0.0;         ///< Gauge: last set value
    /// Histogram: per-bucket counts (bounds.size() + 1, last = +Inf
    /// overflow), total count and sum of observed values.
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count = 0;
    double sum = 0.0;
};

struct MetricsSnapshot {
    std::size_t workers = 0;
    std::vector<MetricValue> metrics;

    /// Lookup by name (snapshot-sized linear scan; test/export convenience).
    [[nodiscard]] const MetricValue* find(const std::string& name) const;
};

class MetricsRegistry {
public:
    /// Register metrics, then freeze(workers), then increment. Registration
    /// after freeze() throws std::logic_error — the per-worker slot arrays
    /// are sized exactly once so the lock-free hot path never races a
    /// reallocation.
    MetricId add_counter(std::string name, std::string help);
    MetricId add_gauge(std::string name, std::string help);
    /// @p bounds must be strictly increasing upper bounds (Prometheus `le`,
    /// inclusive); an implicit +Inf bucket is appended.
    MetricId add_histogram(std::string name, std::string help,
                           std::vector<double> bounds);

    /// Allocate per-worker storage. Idempotent for the same worker count;
    /// throws std::logic_error on a different count (two engines must not
    /// share one registry with different shapes).
    void freeze(std::size_t workers);
    [[nodiscard]] bool frozen() const noexcept {
        return frozen_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::size_t worker_count() const noexcept {
        return workers_.size();
    }

    // --- hot path (valid after freeze(); @p worker < worker_count()) ------
    void inc(std::size_t worker, MetricId id, std::uint64_t delta = 1);
    /// Gauges are process-wide: no worker parameter, last writer wins.
    void set_gauge(MetricId id, double value);
    void observe(std::size_t worker, MetricId id, double value);

    /// Aggregate every metric across workers. Safe to call concurrently
    /// with inc()/observe(); a snapshot taken mid-campaign sees some prefix
    /// of each worker's updates (relaxed reads), never torn values.
    [[nodiscard]] MetricsSnapshot snapshot() const;

private:
    struct Descriptor {
        std::string name;
        std::string help;
        MetricKind kind = MetricKind::Counter;
        std::size_t slot = 0;           ///< scalar slot (counter/gauge)
        std::size_t hist_offset = 0;    ///< first slot of histogram block
        std::vector<double> bounds;     ///< histogram upper bounds
    };

    /// One cache line per slot: no two workers' hot counters ever share a
    /// line, and within a worker adjacent metrics don't false-share either.
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> v{0};
        Slot() = default;
        Slot(const Slot&) = delete;
    };

    /// Histogram block layout within hist: [buckets...][overflow][count][sum]
    /// where sum stores the bit pattern of a double. Fixed-size arrays
    /// (atomics are immovable; the arrays are sized exactly once by freeze).
    struct WorkerStore {
        std::unique_ptr<Slot[]> scalars;
        std::unique_ptr<Slot[]> hist;
    };

    void require_unfrozen(const char* op) const;

    std::vector<Descriptor> metrics_;
    std::size_t scalar_slots_ = 0;
    std::size_t hist_slots_ = 0;
    std::vector<WorkerStore> workers_;
    /// Published (release) once freeze() has sized workers_: snapshot()
    /// reads the slots only after seeing it, so a scrape that races the
    /// engine's freeze reads zeros, never a vector mid-resize.
    std::atomic<bool> frozen_{false};
};

}  // namespace statfi::telemetry
