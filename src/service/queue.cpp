#include "service/queue.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "io/artifact.hpp"
#include "service/recipe_json.hpp"
#include "telemetry/trace.hpp"

namespace statfi::service {

namespace {

constexpr char kMagic[4] = {'S', 'F', 'I', 'Q'};
// v2 appends the per-job fleet trace_id. The queue is a local scratch
// artifact rewritten on every transition, so no cross-version loader: a v1
// file refuses loudly (read_framed's unsupported-version error) instead of
// silently dropping the field.
constexpr std::uint32_t kVersion = 2;

void put_u8(std::string& out, std::uint8_t v) {
    out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u64(std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::string& out, const std::string& s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

class Reader {
public:
    explicit Reader(const std::string& payload) : payload_(payload) {}

    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(payload_[pos_++]);
    }
    std::uint32_t u32() {
        need(sizeof(std::uint32_t));
        std::uint32_t v;
        std::memcpy(&v, payload_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
        return v;
    }
    std::uint64_t u64() {
        need(sizeof(std::uint64_t));
        std::uint64_t v;
        std::memcpy(&v, payload_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
        return v;
    }
    std::string str() {
        const std::uint32_t len = u32();
        need(len);
        std::string s = payload_.substr(pos_, len);
        pos_ += len;
        return s;
    }
    [[nodiscard]] bool done() const noexcept {
        return pos_ == payload_.size();
    }

private:
    void need(std::size_t n) const {
        if (pos_ + n > payload_.size())
            throw std::runtime_error("job queue: truncated payload");
    }
    const std::string& payload_;
    std::size_t pos_ = 0;
};

}  // namespace

const char* to_string(JobState state) noexcept {
    switch (state) {
        case JobState::Queued: return "queued";
        case JobState::Planning: return "planning";
        case JobState::Running: return "running";
        case JobState::Merging: return "merging";
        case JobState::Done: return "done";
        case JobState::Failed: return "failed";
    }
    return "?";
}

JobQueue::JobQueue(std::string path) : path_(std::move(path)) {
    if (!std::filesystem::exists(path_)) return;
    const std::string payload =
        io::read_framed(path_, kMagic, kVersion, "job queue");
    Reader in(payload);
    next_id_ = in.u64();
    const std::uint32_t count = in.u32();
    jobs_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Job job;
        job.id = in.u64();
        const std::uint8_t raw_state = in.u8();
        if (raw_state > static_cast<std::uint8_t>(JobState::Failed))
            throw std::runtime_error("job queue: unknown job state " +
                                     std::to_string(raw_state));
        job.state = static_cast<JobState>(raw_state);
        job.shards = in.u32();
        job.fingerprint = in.str();
        job.recipe_json = in.str();
        job.cache_hit = in.u8() != 0;
        job.shards_total = in.u64();
        job.shards_done = in.u64();
        job.cached_shards = in.u64();
        job.resumed = in.u64();
        job.classified = in.u64();
        job.critical = in.u64();
        job.injected = in.u64();
        job.trace_id = in.u64();
        job.error = in.str();
        try {
            job.recipe = parse_submission(job.recipe_json).recipe;
        } catch (const std::invalid_argument& e) {
            throw std::runtime_error("job queue: job " +
                                     std::to_string(job.id) +
                                     " has an unreadable recipe: " + e.what());
        }
        // Whatever was in flight when the previous process died goes back
        // to the queue; the cache entry's shard results and journals carry
        // the actual progress, so the counters restart from zero.
        if (!job.terminal() && job.state != JobState::Queued) {
            job.state = JobState::Queued;
            job.shards_total = job.shards_done = job.cached_shards = 0;
            job.resumed = job.classified = job.critical = job.injected = 0;
        }
        jobs_.push_back(std::move(job));
    }
    if (!in.done()) throw std::runtime_error("job queue: trailing bytes");
    // The collapse above is itself a transition worth persisting, so a
    // crash loop cannot observe half-collapsed states.
    std::lock_guard<std::mutex> lock(mutex_);
    save_locked();
}

std::uint64_t JobQueue::submit(Job job) {
    std::lock_guard<std::mutex> lock(mutex_);
    job.id = next_id_++;
    job.state = JobState::Queued;
    // Fleet trace identity, fixed for the job's whole life (restarts
    // included, since it persists with the queue). Derivation keeps
    // resubmissions of one recipe distinguishable (the id differs) while
    // needing no shared id allocator.
    if (job.trace_id == 0)
        job.trace_id = telemetry::derive_trace_id(
            "job:" + std::to_string(job.id) + ":" + job.fingerprint);
    const std::uint64_t id = job.id;
    jobs_.push_back(std::move(job));
    save_locked();
    return id;
}

std::optional<Job> JobQueue::claim() {
    std::lock_guard<std::mutex> lock(mutex_);
    return claim_locked();
}

std::optional<Job> JobQueue::wait_claim(const std::function<bool()>& stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stop()) return std::nullopt;
        if (std::optional<Job> job = claim_locked()) return job;
        changed_.wait(lock);
    }
}

std::optional<Job> JobQueue::claim_locked() {
    for (Job& job : jobs_) {
        if (job.state != JobState::Queued) continue;
        job.state = JobState::Planning;
        save_locked();
        return job;
    }
    return std::nullopt;
}

void JobQueue::update(const Job& job) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Job& existing : jobs_) {
        if (existing.id != job.id) continue;
        existing = job;
        save_locked();
        return;
    }
    throw std::invalid_argument("job queue: no job with id " +
                                std::to_string(job.id));
}

std::uint64_t JobQueue::version() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return version_;
}

std::uint64_t JobQueue::wait_change(
    std::uint64_t seen, const std::function<bool()>& stop,
    std::chrono::steady_clock::time_point deadline) const {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait_until(lock, deadline,
                        [&] { return version_ != seen || stop(); });
    return version_;
}

void JobQueue::wake() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++version_;
    changed_.notify_all();
}

std::optional<Job> JobQueue::get(std::uint64_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Job& job : jobs_)
        if (job.id == id) return job;
    return std::nullopt;
}

std::vector<Job> JobQueue::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_;
}

std::optional<std::uint64_t> JobQueue::active_with_fingerprint(
    const std::string& fingerprint) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Job& job : jobs_)
        if (!job.terminal() && job.fingerprint == fingerprint) return job.id;
    return std::nullopt;
}

std::size_t JobQueue::queued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Job& job : jobs_)
        if (job.state == JobState::Queued) ++n;
    return n;
}

std::size_t JobQueue::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.size();
}

void JobQueue::save_locked() {
    // Waiters first, so an I/O error below still announces the in-memory
    // change; none of them runs before this thread releases the mutex.
    ++version_;
    changed_.notify_all();
    payload_.clear();  // keeps its capacity: no allocation once grown
    put_u64(payload_, next_id_);
    put_u32(payload_, static_cast<std::uint32_t>(jobs_.size()));
    for (const Job& job : jobs_) {
        put_u64(payload_, job.id);
        put_u8(payload_, static_cast<std::uint8_t>(job.state));
        put_u32(payload_, job.shards);
        put_str(payload_, job.fingerprint);
        put_str(payload_, job.recipe_json);
        put_u8(payload_, job.cache_hit ? 1 : 0);
        put_u64(payload_, job.shards_total);
        put_u64(payload_, job.shards_done);
        put_u64(payload_, job.cached_shards);
        put_u64(payload_, job.resumed);
        put_u64(payload_, job.classified);
        put_u64(payload_, job.critical);
        put_u64(payload_, job.injected);
        put_u64(payload_, job.trace_id);
        put_str(payload_, job.error);
    }
    io::write_framed_atomic(path_, kMagic, kVersion, payload_);
}

}  // namespace statfi::service
