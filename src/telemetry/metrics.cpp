#include "telemetry/metrics.hpp"

#include <bit>
#include <span>
#include <stdexcept>

namespace statfi::telemetry {

namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

}  // namespace

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
    for (const MetricValue& m : metrics)
        if (m.name == name) return &m;
    return nullptr;
}

void MetricsRegistry::require_unfrozen(const char* op) const {
    if (frozen())
        throw std::logic_error(std::string("MetricsRegistry: ") + op +
                               " after freeze() — the metric schema is fixed "
                               "once workers are bound");
}

MetricId MetricsRegistry::add_counter(std::string name, std::string help) {
    require_unfrozen("add_counter");
    Descriptor d;
    d.name = std::move(name);
    d.help = std::move(help);
    d.kind = MetricKind::Counter;
    d.slot = scalar_slots_++;
    metrics_.push_back(std::move(d));
    return metrics_.size() - 1;
}

MetricId MetricsRegistry::add_gauge(std::string name, std::string help) {
    require_unfrozen("add_gauge");
    Descriptor d;
    d.name = std::move(name);
    d.help = std::move(help);
    d.kind = MetricKind::Gauge;
    d.slot = scalar_slots_++;
    metrics_.push_back(std::move(d));
    return metrics_.size() - 1;
}

MetricId MetricsRegistry::add_histogram(std::string name, std::string help,
                                        std::vector<double> bounds) {
    require_unfrozen("add_histogram");
    if (bounds.empty())
        throw std::invalid_argument(
            "MetricsRegistry: histogram needs at least one bucket bound");
    for (std::size_t i = 1; i < bounds.size(); ++i)
        if (!(bounds[i - 1] < bounds[i]))
            throw std::invalid_argument(
                "MetricsRegistry: histogram bounds must be strictly "
                "increasing");
    Descriptor d;
    d.name = std::move(name);
    d.help = std::move(help);
    d.kind = MetricKind::Histogram;
    d.hist_offset = hist_slots_;
    d.bounds = std::move(bounds);
    // buckets + overflow + count + sum
    hist_slots_ += d.bounds.size() + 3;
    metrics_.push_back(std::move(d));
    return metrics_.size() - 1;
}

void MetricsRegistry::freeze(std::size_t workers) {
    if (workers == 0)
        throw std::invalid_argument("MetricsRegistry: freeze(0)");
    if (frozen()) {
        if (workers_.size() != workers)
            throw std::logic_error(
                "MetricsRegistry: already frozen for " +
                std::to_string(workers_.size()) + " worker(s), cannot "
                "re-freeze for " + std::to_string(workers));
        return;
    }
    workers_.resize(workers);
    for (WorkerStore& w : workers_) {
        if (scalar_slots_ > 0)
            w.scalars = std::make_unique<Slot[]>(scalar_slots_);
        if (hist_slots_ > 0) w.hist = std::make_unique<Slot[]>(hist_slots_);
    }
    frozen_.store(true, std::memory_order_release);
}

void MetricsRegistry::inc(std::size_t worker, MetricId id,
                          std::uint64_t delta) {
    // Single-writer slot: the owning worker is the only mutator, so a
    // relaxed load+store is not a lost-update risk, and the atomic type
    // makes concurrent snapshot() reads well-defined.
    std::atomic<std::uint64_t>& slot =
        workers_[worker].scalars[metrics_[id].slot].v;
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

void MetricsRegistry::set_gauge(MetricId id, double value) {
    workers_[0].scalars[metrics_[id].slot].v.store(double_bits(value),
                                                   std::memory_order_relaxed);
}

void MetricsRegistry::observe(std::size_t worker, MetricId id, double value) {
    const Descriptor& d = metrics_[id];
    std::size_t bucket = d.bounds.size();  // +Inf overflow by default
    for (std::size_t b = 0; b < d.bounds.size(); ++b) {
        if (value <= d.bounds[b]) {
            bucket = b;
            break;
        }
    }
    Slot* block = workers_[worker].hist.get() + d.hist_offset;
    auto bump = [](Slot& s, std::uint64_t delta) {
        s.v.store(s.v.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
    };
    bump(block[bucket], 1);
    bump(block[d.bounds.size() + 1], 1);  // count
    Slot& sum = block[d.bounds.size() + 2];
    sum.v.store(double_bits(bits_double(sum.v.load(
                                std::memory_order_relaxed)) +
                            value),
                std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    const std::span<const WorkerStore> workers =
        frozen() ? std::span<const WorkerStore>(workers_)
                 : std::span<const WorkerStore>();
    MetricsSnapshot snap;
    snap.workers = workers.size();
    snap.metrics.reserve(metrics_.size());
    for (const Descriptor& d : metrics_) {
        MetricValue v;
        v.name = d.name;
        v.help = d.help;
        v.kind = d.kind;
        switch (d.kind) {
            case MetricKind::Counter:
                for (const WorkerStore& w : workers)
                    v.counter +=
                        w.scalars[d.slot].v.load(std::memory_order_relaxed);
                break;
            case MetricKind::Gauge:
                if (!workers.empty())
                    v.gauge = bits_double(workers[0].scalars[d.slot].v.load(
                        std::memory_order_relaxed));
                break;
            case MetricKind::Histogram: {
                v.bounds = d.bounds;
                v.bucket_counts.assign(d.bounds.size() + 1, 0);
                for (const WorkerStore& w : workers) {
                    const Slot* block = w.hist.get() + d.hist_offset;
                    for (std::size_t b = 0; b <= d.bounds.size(); ++b)
                        v.bucket_counts[b] +=
                            block[b].v.load(std::memory_order_relaxed);
                    v.count += block[d.bounds.size() + 1].v.load(
                        std::memory_order_relaxed);
                    v.sum += bits_double(block[d.bounds.size() + 2].v.load(
                        std::memory_order_relaxed));
                }
                break;
            }
        }
        snap.metrics.push_back(std::move(v));
    }
    return snap;
}

}  // namespace statfi::telemetry
