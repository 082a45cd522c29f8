// ServiceDaemon end-to-end: submissions over real HTTP, scheduling across
// the worker pool, and the three acceptance claims of the service
// subsystem — (1) service outcomes are bit-identical to a direct in-process
// run of the same recipe, (2) an identical resubmission completes from the
// content-addressed cache without re-running a single shard, and (3) a
// stopped daemon hands accepted jobs to its successor on the same state
// directory, losing nothing.

#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "report/json_parse.hpp"
#include "service/recipe_json.hpp"
#include "shard/fixture.hpp"
#include "shard/manifest.hpp"
#include "shard/merge.hpp"

namespace statfi::service {
namespace {

namespace fs = std::filesystem;

// --- A minimal loopback HTTP client -----------------------------------------

std::string http_exchange(std::uint16_t port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n =
            ::send(fd, request.data() + sent, request.size() - sent,
                   MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

std::string get(std::uint16_t port, const std::string& target) {
    return http_exchange(port, "GET " + target +
                              " HTTP/1.1\r\nHost: x\r\nConnection: close"
                              "\r\n\r\n");
}

std::string post(std::uint16_t port, const std::string& target,
                 const std::string& body) {
    return http_exchange(port, "POST " + target + " HTTP/1.1\r\nHost: x\r\n" +
                              "Content-Length: " + std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body);
}

std::string status_line(const std::string& response) {
    const auto eol = response.find("\r\n");
    return eol == std::string::npos ? response : response.substr(0, eol);
}

std::string body_of(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? "" : response.substr(pos + 4);
}

report::JsonValue body_json(const std::string& response) {
    return report::parse_json(body_of(response));
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
                body_json(get(port, "/campaigns/" + std::to_string(id)));
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

    EXPECT_NE(body_of(get(port, "/")).find("POST /campaigns"),
              std::string::npos);
    const auto health = body_json(get(port, "/healthz"));
    EXPECT_EQ(health.get_str("status"), "ok");
    EXPECT_EQ(health.get_uint("jobs"), 0u);

    // Malformed bodies are a 400 naming the first problem, not a job.
    EXPECT_NE(status_line(post(port, "/campaigns", "not json")).find("400"),
              std::string::npos);
    const auto typo = post(port, "/campaigns",
                           R"({"model":"micronet","margni":0.05})");
    EXPECT_NE(status_line(typo).find("400"), std::string::npos);
    EXPECT_NE(body_of(typo).find("margni"), std::string::npos);

    // Unknown jobs and artifacts 404 with an explanation.
    EXPECT_NE(status_line(get(port, "/campaigns/99")).find("404"),
              std::string::npos);
    EXPECT_NE(status_line(get(port, "/campaigns/zzz")).find("404"),
              std::string::npos);
    daemon.stop();
}

TEST_F(ServiceTest, CensusOutcomesAreBitIdenticalToDirectRun) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();

    const auto accepted = body_json(post(port, "/campaigns", kCensusRecipe));
    const std::uint64_t id = accepted.get_uint("id");
    ASSERT_GT(id, 0u);
    const std::string fingerprint = accepted.get_str("fingerprint");
    const auto done = await_done(port, id);
    ASSERT_EQ(done.get_str("state"), "done") << done.get_str("error");
    EXPECT_EQ(done.get_uint("shards_done"), 2u);
    EXPECT_EQ(done.get_uint("cached_shards"), 0u);
    EXPECT_FALSE(done.get_bool("cache_hit"));
    EXPECT_GT(done.get_uint("classified"), 0u);

    // The same recipe, run directly through the engine in this process —
    // the service must not have perturbed a single outcome.
    const Submission sub = parse_submission(kCensusRecipe);
    auto fx = shard::build_fixture(sub.recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    const auto direct = engine.run_exhaustive_durable(fx.universe, {}).outcomes;

    const std::string cache_dir = daemon.cache().dir_of(fingerprint);
    const auto served =
        core::ExhaustiveOutcomes::load(ResultCache::outcomes_path(cache_dir));
    ASSERT_EQ(served.size(), direct.size());
    for (std::uint64_t i = 0; i < direct.size(); ++i)
        ASSERT_EQ(served.at(i), direct.at(i)) << "fault " << i;

    // The artifact endpoints serve what the cache holds.
    EXPECT_NE(body_of(get(port, "/campaigns/" + std::to_string(id) +
                                    "/report.html"))
                  .find("observatory"),
              std::string::npos);
    const auto result = body_json(
        get(port, "/campaigns/" + std::to_string(id) + "/result.json"));
    EXPECT_EQ(result.get_str("model"), "micronet");
    EXPECT_EQ(result.get_uint("total_injected"), direct.size());
    EXPECT_EQ(result.get_uint("total_critical"),
              direct.critical_count(0, direct.size()));
    const auto events =
        body_of(get(port, "/campaigns/" + std::to_string(id) + "/events"));
    EXPECT_NE(events.find("campaign_header"), std::string::npos);
    EXPECT_NE(events.find("shard_end"), std::string::npos);
    daemon.stop();
}

TEST_F(ServiceTest, StatisticalResultMatchesDirectMergeOfSameManifest) {
    ServiceDaemon daemon(options());
    daemon.start();
    const auto port = daemon.port();

    const auto accepted =
        body_json(post(port, "/campaigns", kStatisticalRecipe));
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
        get(port, "/campaigns/" + std::to_string(id) + "/result.json"));
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

    const auto first = body_json(post(port, "/campaigns", kCensusRecipe));
    const auto first_done = await_done(port, first.get_uint("id"));
    ASSERT_EQ(first_done.get_str("state"), "done");

    // Same campaign, different key order and an irrelevant shard width —
    // identical fingerprint, so the cache must answer it outright.
    const auto second = body_json(post(
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
        ids.push_back(body_json(post(port, "/campaigns",
                                     R"({"model":"micronet","approach":)"
                                     R"("exhaustive","images":2,"policy":)"
                                     R"("golden","seed":)" +
                                         std::to_string(seed) + "}"))
                          .get_uint("id"));
    for (const std::uint64_t id : ids)
        EXPECT_EQ(await_done(port, id).get_str("state"), "done");
    const auto health = body_json(get(port, "/healthz"));
    EXPECT_EQ(health.get_uint("jobs"), 4u);
    EXPECT_EQ(health.get_uint("completed"), 4u);
    EXPECT_EQ(health.get_uint("failed"), 0u);

    const auto list = body_json(get(port, "/campaigns"));
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
    const auto a = body_json(post(port, "/campaigns", slow));
    const auto b = body_json(post(port, "/campaigns", queued));
    const auto dup = post(port, "/campaigns", queued);
    EXPECT_NE(status_line(dup).find("200"), std::string::npos);
    const auto dup_doc = body_json(dup);
    EXPECT_TRUE(dup_doc.get_bool("deduplicated"));
    EXPECT_EQ(dup_doc.get_uint("id"), b.get_uint("id"));

    EXPECT_EQ(await_done(port, a.get_uint("id")).get_str("state"), "done");
    EXPECT_EQ(await_done(port, b.get_uint("id")).get_str("state"), "done");
    // The fold created no third job.
    EXPECT_EQ(body_json(get(port, "/healthz")).get_uint("jobs"), 2u);
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
        const auto a = body_json(post(
            port, "/campaigns",
            R"({"model":"micronet","train":true,"approach":"exhaustive",)"
            R"("images":2,"policy":"golden","seed":21})"));
        slow_id = a.get_uint("id");
        fingerprint = a.get_str("fingerprint");
        const auto b = body_json(post(
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

}  // namespace
}  // namespace statfi::service
