// ServiceDaemon end-to-end: submissions over real HTTP, scheduling across
// the worker pool, and the three acceptance claims of the service
// subsystem — (1) service outcomes are bit-identical to a direct in-process
// run of the same recipe, (2) an identical resubmission completes from the
// content-addressed cache without re-running a single shard, and (3) a
// stopped daemon hands accepted jobs to its successor on the same state
// directory, losing nothing. ServiceFollowTest pins events?follow=1: the
// whole log in order, ending with the job, and ended at once by stop().

#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../support/http_client.hpp"
#include "core/engine.hpp"
#include "io/atomic_file.hpp"
#include "report/json_parse.hpp"
#include "service/recipe_json.hpp"
#include "shard/fixture.hpp"
#include "shard/manifest.hpp"
#include "shard/merge.hpp"
#include "shard/runner.hpp"
#include "shard/summary.hpp"

namespace statfi::service {
namespace {

namespace fs = std::filesystem;

// --- HTTP helpers -----------------------------------------------------------

using testsupport::http_body;
using testsupport::http_get;
using testsupport::http_post;

std::string status_line(const std::string& response) {
    const auto eol = response.find("\r\n");
    return eol == std::string::npos ? response : response.substr(0, eol);
}

report::JsonValue body_json(const std::string& response) {
    return report::parse_json(http_body(response));
}

// --- Fixture ----------------------------------------------------------------

class ServiceTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               (std::string("statfi_service_test_") + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        // Trained weights are cached per (model, seed); a per-test cache
        // keeps the training jobs below slow enough to pin a worker.
        setenv("STATFI_CACHE_DIR", (dir_ / "cache").c_str(), 1);
    }
    void TearDown() override {
        unsetenv("STATFI_CACHE_DIR");
        fs::remove_all(dir_);
    }

    DaemonOptions options(std::size_t workers = 2) const {
        DaemonOptions o;
        o.state_dir = (dir_ / "state").string();
        o.workers = workers;
        o.default_shards = 2;
        return o;
    }

    /// Poll /campaigns/<id>/status until the job is terminal; FAIL on
    /// timeout so a wedged scheduler cannot hang the suite.
    static report::JsonValue await_done(std::uint16_t port, std::uint64_t id,
                                        int timeout_s = 120) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(timeout_s);
        for (;;) {
            const auto doc =
                body_json(http_get(port, "/campaigns/" + std::to_string(id)));
            const std::string state = doc.get_str("state");
            if (state == "done" || state == "failed") return doc;
            if (std::chrono::steady_clock::now() > deadline) {
                ADD_FAILURE() << "job " << id << " stuck in state '" << state
                              << "'";
                return doc;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }

    fs::path dir_;
};

constexpr const char* kCensusRecipe =
    R"({"model":"micronet","approach":"exhaustive","images":2,)"
    R"("policy":"golden","seed":424,"shards":2})";

constexpr const char* kStatisticalRecipe =
    R"({"model":"micronet","approach":"layer-wise","margin":0.05,)"
    R"("confidence":0.95,"images":2,"policy":"golden","seed":7,"shards":3})";

// --- Tests ------------------------------------------------------------------

TEST_F(ServiceTest, IndexHealthzAndBadSubmissions) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();

    EXPECT_NE(http_body(http_get(port, "/")).find("POST /campaigns"),
              std::string::npos);
    const auto health = body_json(http_get(port, "/healthz"));
    EXPECT_EQ(health.get_str("status"), "ok");
    EXPECT_EQ(health.get_uint("jobs"), 0u);

    // Malformed bodies are a 400 naming the first problem, not a job.
    EXPECT_NE(
        status_line(http_post(port, "/campaigns", "not json")).find("400"),
        std::string::npos);
    const auto typo = http_post(port, "/campaigns",
                                R"({"model":"micronet","margni":0.05})");
    EXPECT_NE(status_line(typo).find("400"), std::string::npos);
    EXPECT_NE(http_body(typo).find("margni"), std::string::npos);

    // Unknown jobs and artifacts 404 with an explanation.
    EXPECT_NE(status_line(http_get(port, "/campaigns/99")).find("404"),
              std::string::npos);
    EXPECT_NE(status_line(http_get(port, "/campaigns/zzz")).find("404"),
              std::string::npos);
    daemon.stop();
}

TEST_F(ServiceTest, CensusOutcomesAreBitIdenticalToDirectRun) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();

    const auto accepted =
        body_json(http_post(port, "/campaigns", kCensusRecipe));
    const std::uint64_t id = accepted.get_uint("id");
    ASSERT_GT(id, 0u);
    const std::string fingerprint = accepted.get_str("fingerprint");
    const auto done = await_done(port, id);
    ASSERT_EQ(done.get_str("state"), "done") << done.get_str("error");
    EXPECT_EQ(done.get_uint("shards_done"), 2u);
    EXPECT_EQ(done.get_uint("cached_shards"), 0u);
    EXPECT_FALSE(done.get_bool("cache_hit"));
    EXPECT_GT(done.get_uint("classified"), 0u);

    // The same recipe, run directly in this process the way `statfi
    // campaign` runs it — the service must not have perturbed a single
    // outcome.
    const Submission sub = parse_submission(kCensusRecipe);
    auto fx = shard::build_fixture(sub.recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    const shard::MergedCampaign direct_run =
        shard::run_range(sub.recipe, core::plan_exhaustive(fx.universe), fx,
                         engine, {})
            .campaign;
    const core::ExhaustiveOutcomes& direct = direct_run.outcomes;

    const std::string cache_dir = daemon.cache().dir_of(fingerprint);
    const auto served =
        core::ExhaustiveOutcomes::load(ResultCache::outcomes_path(cache_dir));
    ASSERT_EQ(served.size(), direct.size());
    for (std::uint64_t i = 0; i < direct.size(); ++i)
        ASSERT_EQ(served.at(i), direct.at(i)) << "fault " << i;

    // The artifact endpoints serve what the cache holds.
    EXPECT_NE(http_body(http_get(port, "/campaigns/" + std::to_string(id) +
                                         "/report.html"))
                  .find("observatory"),
              std::string::npos);
    const std::string result_json = http_body(
        http_get(port, "/campaigns/" + std::to_string(id) + "/result.json"));
    std::ostringstream direct_summary;
    shard::write_summary_json(
        direct_summary, shard::summarize(sub.recipe, fx.universe, direct_run));
    EXPECT_EQ(result_json, direct_summary.str());
    const auto result = report::parse_json(result_json);
    EXPECT_EQ(result.get_str("model"), "micronet");
    EXPECT_EQ(result.get_uint("total_injected"), direct.size());
    EXPECT_EQ(result.get_uint("total_critical"),
              direct.critical_count(0, direct.size()));
    const auto events = http_body(
        http_get(port, "/campaigns/" + std::to_string(id) + "/events"));
    EXPECT_NE(events.find("campaign_header"), std::string::npos);
    EXPECT_NE(events.find("shard_end"), std::string::npos);
    daemon.stop();
}

TEST_F(ServiceTest, StatisticalResultMatchesDirectMergeOfSameManifest) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();

    const auto accepted =
        body_json(http_post(port, "/campaigns", kStatisticalRecipe));
    const std::uint64_t id = accepted.get_uint("id");
    const std::string fingerprint = accepted.get_str("fingerprint");
    const auto done = await_done(port, id);
    ASSERT_EQ(done.get_str("state"), "done") << done.get_str("error");
    EXPECT_EQ(done.get_uint("shards_done"), 3u);

    // Merge the very shard results the service produced, in-process, and
    // compare tallies with the served result document: one pipeline, two
    // drivers, identical numbers.
    const std::string cache_dir = daemon.cache().dir_of(fingerprint);
    const std::string manifest_path = ResultCache::manifest_path(cache_dir);
    const auto manifest = shard::ShardManifest::load(manifest_path);
    const auto merged = shard::merge_shards(manifest, manifest_path);
    ASSERT_EQ(merged.kind, shard::CampaignKind::Statistical);

    const auto result = body_json(
        http_get(port, "/campaigns/" + std::to_string(id) + "/result.json"));
    EXPECT_EQ(result.get_uint("total_injected"),
              merged.result.total_injected());
    EXPECT_EQ(result.get_uint("total_critical"),
              merged.result.total_critical());
    EXPECT_EQ(result.get_uint("total_injected"), manifest.item_count);
    const auto* network = result.find("network");
    ASSERT_NE(network, nullptr);
    EXPECT_GE(network->get_num("rate"), 0.0);
    EXPECT_LE(network->get_num("rate"), 1.0);
    EXPECT_GT(network->get_num("margin"), 0.0);
    daemon.stop();
}

TEST_F(ServiceTest, IdenticalResubmissionCompletesFromCacheWithoutInference) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();

    const auto first = body_json(http_post(port, "/campaigns", kCensusRecipe));
    const auto first_done = await_done(port, first.get_uint("id"));
    ASSERT_EQ(first_done.get_str("state"), "done");

    // Same campaign, different key order and an irrelevant shard width —
    // identical fingerprint, so the cache must answer it outright.
    const auto second = body_json(http_post(
        port, "/campaigns",
        R"({"seed":424,"policy":"golden","images":2,)"
        R"("approach":"exhaustive","model":"micronet","shards":4})"));
    EXPECT_EQ(second.get_str("fingerprint"), first.get_str("fingerprint"));
    EXPECT_TRUE(second.get_bool("cached"));
    const std::uint64_t id = second.get_uint("id");
    EXPECT_NE(id, first.get_uint("id"));

    const auto done = await_done(port, id);
    ASSERT_EQ(done.get_str("state"), "done");
    EXPECT_TRUE(done.get_bool("cache_hit"));
    EXPECT_EQ(done.get_uint("classified"), 0u);  // zero inference re-run
    EXPECT_EQ(done.get_uint("cached_shards"), done.get_uint("shards_total"));
    EXPECT_EQ(done.get_uint("injected"), first_done.get_uint("injected"));
    daemon.stop();
}

TEST_F(ServiceTest, RunsCampaignsConcurrentlyAcrossWorkers) {
    ServiceDaemon daemon(options(/*workers=*/2));
    daemon.start();
    const auto port = daemon.port();

    // Four distinct recipes across two workers; all must land.
    std::vector<std::uint64_t> ids;
    for (int seed = 1; seed <= 4; ++seed)
        ids.push_back(body_json(http_post(port, "/campaigns",
                                          R"({"model":"micronet","approach":)"
                                          R"("exhaustive","images":2,"policy":)"
                                          R"("golden","seed":)" +
                                              std::to_string(seed) + "}"))
                          .get_uint("id"));
    for (const std::uint64_t id : ids)
        EXPECT_EQ(await_done(port, id).get_str("state"), "done");
    const auto health = body_json(http_get(port, "/healthz"));
    EXPECT_EQ(health.get_uint("jobs"), 4u);
    EXPECT_EQ(health.get_uint("completed"), 4u);
    EXPECT_EQ(health.get_uint("failed"), 0u);

    const auto list = body_json(http_get(port, "/campaigns"));
    const auto* jobs = list.find("jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_EQ(jobs->array.size(), 4u);
    daemon.stop();
}

TEST_F(ServiceTest, InFlightDuplicateFoldsOntoTheActiveJob) {
    // One worker, and a first job slow enough (training) to pin it: the
    // second recipe sits Queued, so resubmitting it MUST dedupe.
    ServiceDaemon daemon(options(/*workers=*/1));
    daemon.start();
    const auto port = daemon.port();

    const std::string slow =
        R"({"model":"micronet","train":true,"approach":"exhaustive",)"
        R"("images":2,"policy":"golden","seed":11})";
    const std::string queued =
        R"({"model":"micronet","approach":"exhaustive","images":2,)"
        R"("policy":"golden","seed":12})";
    const auto a = body_json(http_post(port, "/campaigns", slow));
    const auto b = body_json(http_post(port, "/campaigns", queued));
    const auto dup = http_post(port, "/campaigns", queued);
    EXPECT_NE(status_line(dup).find("200"), std::string::npos);
    const auto dup_doc = body_json(dup);
    EXPECT_TRUE(dup_doc.get_bool("deduplicated"));
    EXPECT_EQ(dup_doc.get_uint("id"), b.get_uint("id"));

    EXPECT_EQ(await_done(port, a.get_uint("id")).get_str("state"), "done");
    EXPECT_EQ(await_done(port, b.get_uint("id")).get_str("state"), "done");
    // The fold created no third job.
    EXPECT_EQ(body_json(http_get(port, "/healthz")).get_uint("jobs"), 2u);
    daemon.stop();
}

TEST_F(ServiceTest, StoppedDaemonHandsQueueToItsSuccessor) {
    const DaemonOptions opts = options(/*workers=*/1);
    std::string fingerprint;
    std::uint64_t slow_id = 0;
    std::uint64_t queued_id = 0;
    {
        ServiceDaemon first(opts);
        first.start();
        const auto port = first.port();
        // A slow (training) job the worker claims, plus one it cannot get
        // to — then stop. The claimed job checkpoints and requeues; the
        // queued one must simply survive.
        const auto a = body_json(http_post(
            port, "/campaigns",
            R"({"model":"micronet","train":true,"approach":"exhaustive",)"
            R"("images":2,"policy":"golden","seed":21})"));
        slow_id = a.get_uint("id");
        fingerprint = a.get_str("fingerprint");
        const auto b = body_json(http_post(
            port, "/campaigns",
            R"({"model":"micronet","approach":"exhaustive","images":2,)"
            R"("policy":"golden","seed":22})"));
        queued_id = b.get_uint("id");
        first.stop();
    }

    // The queue on disk still knows both jobs, none terminal-failed.
    {
        JobQueue queue(opts.state_dir + "/queue.sfiq");
        ASSERT_EQ(queue.size(), 2u);
        ASSERT_TRUE(queue.get(slow_id).has_value());
        ASSERT_TRUE(queue.get(queued_id).has_value());
        EXPECT_NE(queue.get(slow_id)->state, JobState::Failed);
    }

    // A successor on the same state directory finishes both, unprompted.
    ServiceDaemon second(opts);
    second.start();
    const auto done_a = await_done(second.port(), slow_id);
    EXPECT_EQ(done_a.get_str("state"), "done") << done_a.get_str("error");
    EXPECT_EQ(done_a.get_str("fingerprint"), fingerprint);
    const auto done_b = await_done(second.port(), queued_id);
    EXPECT_EQ(done_b.get_str("state"), "done") << done_b.get_str("error");
    second.stop();
}

// --- events?follow=1 ----------------------------------------------------------

class ServiceFollowTest : public ServiceTest {
protected:
    /// Follow job @p id's event log until the stream ends; its dechunked
    /// body. The read is bounded, so a follow that never ends fails.
    static std::string follow(std::uint16_t port, std::uint64_t id) {
        testsupport::HttpStream stream(
            port, "/campaigns/" + std::to_string(id) + "/events?follow=1");
        EXPECT_TRUE(stream.read_to_close(std::chrono::seconds(120)))
            << "the follow of job " << id << " did not end";
        std::string body;
        bool terminated = false;
        EXPECT_TRUE(
            testsupport::dechunk(http_body(stream.response()), body, terminated));
        EXPECT_TRUE(terminated);
        return body;
    }

    /// Each line's type, with the shard number of shard_* lines (else -1).
    static std::vector<std::pair<std::string, std::int64_t>> events_of(
        const std::string& log) {
        std::vector<std::pair<std::string, std::int64_t>> out;
        std::istringstream lines(log);
        for (std::string line; std::getline(lines, line);) {
            const auto event = report::parse_json(line);
            const std::string type = event.get_str("type");
            out.emplace_back(type,
                             type.rfind("shard_", 0) == 0
                                 ? static_cast<std::int64_t>(
                                       event.get_uint("shard"))
                                 : -1);
        }
        return out;
    }

    static std::string entry_log(ServiceDaemon& daemon,
                                 const std::string& fingerprint) {
        std::string log;
        EXPECT_TRUE(io::read_file(
            ResultCache::events_path(daemon.cache().dir_of(fingerprint)), log));
        return log;
    }
};

TEST_F(ServiceFollowTest, FollowOfACacheHitStreamsTheEntryLogAndCloses) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();
    const auto first =
        body_json(http_post(port, "/campaigns", kStatisticalRecipe));
    ASSERT_EQ(await_done(port, first.get_uint("id")).get_str("state"), "done");

    const auto hit =
        body_json(http_post(port, "/campaigns", kStatisticalRecipe));
    ASSERT_TRUE(hit.get_bool("cached"));
    const std::uint64_t id = hit.get_uint("id");
    const std::string body = follow(port, id);
    EXPECT_EQ(daemon.queue().get(id)->state, JobState::Done);
    EXPECT_EQ(body, entry_log(daemon, hit.get_str("fingerprint")));
    const auto events = events_of(body);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().first, "campaign_header");
    EXPECT_EQ(events.back().first, "campaign_end");
    daemon.stop();
}

TEST_F(ServiceFollowTest, FollowOfAFreshJobDeliversItsLogInOrderAndEndsWithIt) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();
    const auto accepted =
        body_json(http_post(port, "/campaigns", kStatisticalRecipe));
    const std::uint64_t id = accepted.get_uint("id");
    const std::string body = follow(port, id);
    // The stream ended because the job did, and carried its whole log once.
    EXPECT_EQ(daemon.queue().get(id)->state, JobState::Done);
    EXPECT_EQ(body, entry_log(daemon, accepted.get_str("fingerprint")));

    const auto events = events_of(body);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().first, "campaign_header");
    EXPECT_EQ(events.back().first, "campaign_end");
    std::vector<std::pair<std::string, std::int64_t>> shards, expected;
    for (const auto& event : events)
        if (event.second >= 0) shards.push_back(event);
    for (std::int64_t k = 0; k < 3; ++k) {
        expected.emplace_back("shard_begin", k);
        expected.emplace_back("shard_end", k);
    }
    EXPECT_EQ(shards, expected);
    daemon.stop();
}

TEST_F(ServiceFollowTest, StopEndsAFollowOfARunningShardAtOnce) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();
    // One census shard of several seconds: between its shard_begin and its
    // end no transition and no event-log line wakes the follower. (Training
    // would hold the job as well, but it cannot be cancelled, so stop()
    // would wait it out.)
    const std::uint64_t id =
        body_json(http_post(
                      port, "/campaigns",
                      R"({"model":"micronet","approach":"exhaustive",)"
                      R"("images":16,"policy":"golden","seed":41,"shards":1})"))
            .get_uint("id");
    testsupport::HttpStream stream(
        port, "/campaigns/" + std::to_string(id) + "/events?follow=1");
    ASSERT_TRUE(stream.read_until("shard_begin", std::chrono::seconds(300)));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // waiting

    auto stopped = std::async(std::launch::async, [&] { daemon.stop(); });
    // stop() itself must end the follow: left alone, the shard's end would.
    EXPECT_TRUE(stream.read_to_close(std::chrono::seconds(10)));
    EXPECT_EQ(daemon.queue().get(id)->shards_done, 0u)
        << "the follow outlived the shard";
    if (stopped.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "stop() did not return";
        daemon.queue().wake();
    }
    stopped.get();
    // The cancelled shard checkpointed and the job went back to the queue.
    EXPECT_EQ(daemon.queue().get(id)->state, JobState::Queued);
}

}  // namespace
}  // namespace statfi::service
