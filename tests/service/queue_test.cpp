// Persistent job queue contract: every accepted job survives any crash
// (atomic framed rewrite per transition), in-flight states collapse back to
// Queued on reload, terminal states and their counters survive verbatim,
// and a corrupt queue file stops the daemon loudly instead of silently
// dropping jobs. QueueWaitTest pins the wait contract the scheduler and the
// follow streams block on: no change and no stop is ever missed.

#include "service/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hpp"
#include "service/recipe_json.hpp"
#include "service/scheduler.hpp"

namespace statfi::service {
namespace {

class QueueTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("statfi_queue_test_") + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "queue.sfiq").string();
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// A job as the daemon would enqueue it: parsed recipe + canonical
    /// JSON + fingerprint.
    static Job make_job(std::uint64_t seed) {
        const Submission sub = parse_submission(
            R"({"model":"micronet","seed":)" + std::to_string(seed) + "}");
        Job job;
        job.recipe = sub.recipe;
        job.recipe_json = canonical_recipe_json(sub.recipe);
        job.fingerprint = recipe_fingerprint(sub.recipe);
        job.shards = 2;
        return job;
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(QueueTest, StartsEmptyWithoutAFile) {
    JobQueue queue(path_);
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.queued(), 0u);
    EXPECT_FALSE(queue.claim().has_value());
}

TEST_F(QueueTest, SubmitAssignsMonotonicIdsAndPersists) {
    {
        JobQueue queue(path_);
        EXPECT_EQ(queue.submit(make_job(1)), 1u);
        EXPECT_EQ(queue.submit(make_job(2)), 2u);
    }
    JobQueue reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.queued(), 2u);
    // Ids keep counting after a restart — no reuse, no collisions.
    EXPECT_EQ(reloaded.submit(make_job(3)), 3u);
    const auto job = reloaded.get(1);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->recipe.model, "micronet");
    EXPECT_EQ(job->recipe.seed, 1u);
    EXPECT_EQ(job->fingerprint, make_job(1).fingerprint);
}

TEST_F(QueueTest, ClaimTakesOldestQueuedFirst) {
    JobQueue queue(path_);
    queue.submit(make_job(1));
    queue.submit(make_job(2));
    const auto first = queue.claim();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->id, 1u);
    EXPECT_EQ(first->state, JobState::Planning);
    const auto second = queue.claim();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->id, 2u);
    EXPECT_FALSE(queue.claim().has_value());  // nothing left to claim
}

TEST_F(QueueTest, UpdatePersistsStateAndCounters) {
    {
        JobQueue queue(path_);
        queue.submit(make_job(1));
        Job job = *queue.claim();
        job.state = JobState::Done;
        job.shards_total = 2;
        job.shards_done = 2;
        job.classified = 190;
        job.critical = 20;
        job.injected = 190;
        job.cache_hit = true;
        queue.update(job);
    }
    JobQueue reloaded(path_);
    const auto job = reloaded.get(1);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Done);
    EXPECT_EQ(job->classified, 190u);
    EXPECT_EQ(job->critical, 20u);
    EXPECT_TRUE(job->cache_hit);
}

TEST_F(QueueTest, NonTerminalStatesCollapseToQueuedOnReload) {
    {
        JobQueue queue(path_);
        queue.submit(make_job(1));
        Job job = *queue.claim();
        job.state = JobState::Running;
        job.shards_total = 4;
        job.shards_done = 2;
        job.classified = 77;
        queue.update(job);
    }
    // The daemon died mid-run. On reload the job is simply re-claimable;
    // its counters reset because real progress lives in the cache entry's
    // shard results and journals, not in the queue.
    JobQueue reloaded(path_);
    const auto job = reloaded.get(1);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Queued);
    EXPECT_EQ(job->shards_done, 0u);
    EXPECT_EQ(job->classified, 0u);
    EXPECT_EQ(reloaded.queued(), 1u);
    // And the collapse was itself persisted, not just in memory.
    JobQueue again(path_);
    EXPECT_EQ(again.get(1)->state, JobState::Queued);
}

TEST_F(QueueTest, FailedJobsStayFailedWithTheirError) {
    {
        JobQueue queue(path_);
        queue.submit(make_job(1));
        Job job = *queue.claim();
        job.state = JobState::Failed;
        job.error = "fixture build exploded";
        queue.update(job);
    }
    JobQueue reloaded(path_);
    EXPECT_EQ(reloaded.get(1)->state, JobState::Failed);
    EXPECT_EQ(reloaded.get(1)->error, "fixture build exploded");
    EXPECT_EQ(reloaded.queued(), 0u);
}

TEST_F(QueueTest, ActiveFingerprintLookupIgnoresTerminalJobs) {
    JobQueue queue(path_);
    const Job job = make_job(1);
    queue.submit(job);
    ASSERT_TRUE(queue.active_with_fingerprint(job.fingerprint).has_value());
    EXPECT_EQ(*queue.active_with_fingerprint(job.fingerprint), 1u);
    EXPECT_FALSE(queue.active_with_fingerprint("ffffffffffffffff"));

    Job done = *queue.claim();
    done.state = JobState::Done;
    queue.update(done);
    // A finished job no longer captures duplicates — resubmission must
    // create a fresh job that completes from the cache.
    EXPECT_FALSE(queue.active_with_fingerprint(job.fingerprint).has_value());
}

TEST_F(QueueTest, CorruptFileThrowsInsteadOfDroppingJobs) {
    {
        JobQueue queue(path_);
        queue.submit(make_job(1));
    }
    // Flip one payload byte: the frame CRC must catch it.
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(12);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(12);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
    file.close();
    EXPECT_THROW(JobQueue{path_}, std::runtime_error);
}

TEST_F(QueueTest, GarbageFileThrows) {
    std::ofstream(path_, std::ios::binary) << "this is not a queue";
    EXPECT_THROW(JobQueue{path_}, std::runtime_error);
}

// --- the wait contract --------------------------------------------------------

using Clock = std::chrono::steady_clock;
constexpr auto kWatchdog = std::chrono::seconds(20);

class QueueWaitTest : public QueueTest {
protected:
    const std::function<bool()> stopped_ = [this] { return stop_.load(); };

    /// True once @p waiter returned. A waiter still asleep at the watchdog
    /// missed its wakeup: it is released with stop + wake so the test fails
    /// instead of hanging.
    template <typename T>
    bool returns(std::future<T>& waiter, JobQueue& queue) {
        if (waiter.wait_for(kWatchdog) == std::future_status::ready)
            return true;
        stop_ = true;
        queue.wake();
        waiter.wait();
        return false;
    }

    std::atomic<bool> stop_{false};
};

TEST_F(QueueWaitTest, WaitingClaimReturnsAJobSubmittedAfterTheWaitBegan) {
    JobQueue queue(path_);
    auto claimed = std::async(std::launch::async,
                              [&] { return queue.wait_claim(stopped_); });
    // Nothing is queued: the claim must be waiting, not returning empty.
    EXPECT_EQ(claimed.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    const std::uint64_t id = queue.submit(make_job(1));
    ASSERT_TRUE(returns(claimed, queue)) << "the submit did not wake the claim";
    const std::optional<Job> job = claimed.get();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->id, id);
    EXPECT_EQ(job->state, JobState::Planning);
    EXPECT_EQ(queue.get(id)->state, JobState::Planning);
}

TEST_F(QueueWaitTest, ChangeWaitReturnsAtOnceForAChangeItHasNotSeen) {
    JobQueue queue(path_);
    // A transition, then a bare wake, each landing between reading the
    // version and waiting: the wait must not sleep to its deadline.
    for (int round = 0; round < 2; ++round) {
        const std::uint64_t seen = queue.version();
        if (round == 0)
            queue.submit(make_job(1));
        else
            queue.wake();
        const auto start = Clock::now();
        const std::uint64_t now =
            queue.wait_change(seen, stopped_, start + kWatchdog);
        EXPECT_NE(now, seen);
        EXPECT_LT(Clock::now() - start, kWatchdog / 2) << "round " << round;
    }
    // With no change the wait ends at its deadline and reports none.
    const std::uint64_t seen = queue.version();
    EXPECT_EQ(queue.wait_change(seen, stopped_,
                                Clock::now() + std::chrono::milliseconds(20)),
              seen);
}

TEST_F(QueueWaitTest, TransitionsMoveTheVersion) {
    JobQueue queue(path_);
    std::uint64_t seen = queue.version();
    const auto moved = [&] {
        const std::uint64_t now = queue.version();
        const bool changed = now != seen;
        seen = now;
        return changed;
    };
    queue.submit(make_job(1));
    EXPECT_TRUE(moved());
    Job job = *queue.claim();
    EXPECT_TRUE(moved());
    job.state = JobState::Done;
    queue.update(job);
    EXPECT_TRUE(moved());
    // Reads, and a claim that finds nothing, change nothing.
    EXPECT_TRUE(queue.get(1).has_value());
    EXPECT_EQ(queue.snapshot().size(), 1u);
    EXPECT_FALSE(queue.claim().has_value());
    EXPECT_FALSE(moved());
}

TEST_F(QueueWaitTest, StopWakesEveryWaiter) {
    JobQueue queue(path_);
    const std::uint64_t seen = queue.version();
    std::vector<std::future<std::optional<Job>>> claims;
    std::vector<std::future<std::uint64_t>> changes;
    for (int i = 0; i < 3; ++i) {
        claims.push_back(std::async(std::launch::async,
                                    [&] { return queue.wait_claim(stopped_); }));
        changes.push_back(std::async(std::launch::async, [&] {
            return queue.wait_change(seen, stopped_, Clock::now() + kWatchdog * 2);
        }));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop_ = true;
    queue.wake();
    for (auto& claim : claims) {
        ASSERT_EQ(claim.wait_for(kWatchdog), std::future_status::ready);
        EXPECT_FALSE(claim.get().has_value());
    }
    for (auto& change : changes)
        ASSERT_EQ(change.wait_for(kWatchdog), std::future_status::ready);
}

TEST_F(QueueWaitTest, SchedulerStopWakesIdleWorkers) {
    JobQueue queue(path_);
    ResultCache cache((dir_ / "cache").string());
    Scheduler scheduler(queue, cache, nullptr, SchedulerOptions{});
    scheduler.start();
    // Both workers find nothing to claim and block in wait_claim().
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto stopped = std::async(std::launch::async, [&] { scheduler.stop(); });
    EXPECT_TRUE(returns(stopped, queue)) << "stop() left a worker asleep";
}

TEST_F(QueueWaitTest, NoWakeupIsLostUnderStress) {
    // A waiter thread and this thread meet at a spin barrier every round.
    // This thread then spins a swept number of iterations and makes the one
    // change that releases the waiter: a bare wake() or an update() for a
    // change-wait, a submit for a waiting claim. The sweep lands the change
    // all along the waiter's way into its wait, so a change that skips the
    // mutex lands between a predicate check and its wait in some round, and
    // the round's watchdog fails it. A fresh queue every 50 submits keeps
    // each save small.
    constexpr int kRounds = 2400;
    enum class Change { Wake, Update, Submit };
    const auto change_of = [](int round) {
        const int k = round % 4;
        return k == 1 ? Change::Update : k == 3 ? Change::Submit : Change::Wake;
    };
    const Job job = make_job(1);
    const auto far = Clock::now() + std::chrono::hours(1);
    std::unique_ptr<JobQueue> queue;
    Job claimed;             // the job the update rounds store back
    std::uint64_t seen = 0;  // published to the waiter by go
    std::atomic<int> go{-1};
    std::atomic<int> done{-1};
    std::thread waiter([&] {
        for (int r = 0; r < kRounds; ++r) {
            while (go.load(std::memory_order_acquire) != r)
                if (stop_) return;
            if (change_of(r) == Change::Submit)
                queue->wait_claim(stopped_);
            else
                queue->wait_change(seen, stopped_, far);
            done.store(r, std::memory_order_release);
        }
    });
    int submits = 0;
    for (int r = 0; r < kRounds && !stop_; ++r) {
        const Change change = change_of(r);
        if (r == 0 || (change == Change::Submit && ++submits % 50 == 0)) {
            queue = std::make_unique<JobQueue>(
                (dir_ / ("stress" + std::to_string(submits) + ".sfiq"))
                    .string());
            queue->submit(job);
            claimed = *queue->claim();
        }
        seen = queue->version();
        go.store(r, std::memory_order_release);
        volatile int spin = 0;
        while (spin < (r * 7) % 1024) spin = spin + 1;
        if (change == Change::Wake)
            queue->wake();
        else if (change == Change::Update)
            queue->update(claimed);
        else
            queue->submit(job);
        const auto deadline = Clock::now() + kWatchdog;
        while (done.load(std::memory_order_acquire) != r) {
            if (Clock::now() < deadline) continue;
            ADD_FAILURE() << (change == Change::Submit ? "waiting claim"
                                                       : "change-wait")
                          << " missed its wakeup in round " << r;
            stop_ = true;  // release the sleeper, then end both loops
            queue->wake();
            break;
        }
    }
    stop_ = true;
    waiter.join();
}

}  // namespace
}  // namespace statfi::service
