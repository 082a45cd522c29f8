// The daemon's /fleet view and its named degraded paths. /fleet is a fold
// over what the service already records: a terminal job reports its job
// counters with the Wilson interval stats::wilson_interval computes, and a
// running job reports the newest samples of the metrics.tsf its sampler
// writes into the cache entry. A shard trace that cannot be written is an
// artifact_failed event in the service log, and the job still completes.

#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "../support/http_client.hpp"
#include "report/json_parse.hpp"
#include "service/recipe_json.hpp"
#include "shard/driver.hpp"
#include "stats/intervals.hpp"
#include "telemetry/history.hpp"

namespace statfi::service {
namespace {

namespace fs = std::filesystem;
using testsupport::http_body;
using testsupport::http_get;

class FleetPlaneTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               ("statfi_fleet_plane_test_" + std::string(info->name()) + "_" +
                std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    DaemonOptions options() const {
        DaemonOptions o;
        o.state_dir = (dir_ / "state").string();
        o.workers = 1;
        o.default_shards = 2;
        return o;
    }

    /// Queue a job, then move it straight to @p state with @p counters — a
    /// started scheduler only ever claims Queued jobs, so these stay put.
    static std::uint64_t place(ServiceDaemon& daemon, Job job, JobState state) {
        job.id = daemon.queue().submit(job);
        job.state = state;
        daemon.queue().update(job);
        return job.id;
    }

    /// The /fleet entry of job @p id.
    static report::JsonValue fleet_entry(std::uint16_t port, std::uint64_t id) {
        const report::JsonValue fleet =
            report::parse_json(http_body(http_get(port, "/fleet")));
        if (const report::JsonValue* jobs = fleet.find("jobs"))
            for (const report::JsonValue& job : jobs->array)
                if (job.get_uint("id") == id) return job;
        ADD_FAILURE() << "job " << id << " missing from /fleet";
        return {};
    }

    fs::path dir_;
};

TEST_F(FleetPlaneTest, FleetReportsTerminalJobCountersWithTheWilsonInterval) {
    ServiceDaemon daemon(options());
    Job done;
    done.fingerprint = "00000000000000d1";
    done.resumed = 40;
    done.classified = 960;
    done.critical = 50;
    const std::uint64_t done_id = place(daemon, done, JobState::Done);
    Job failed;
    failed.fingerprint = "00000000000000f1";
    const std::uint64_t failed_id = place(daemon, failed, JobState::Failed);
    daemon.start();

    const report::JsonValue d = fleet_entry(daemon.port(), done_id);
    const stats::Interval ci = stats::wilson_interval(50, 1000, 0.95);
    EXPECT_EQ(d.get_str("state"), "done");
    EXPECT_EQ(d.get_uint("faults"), 1000u);
    EXPECT_DOUBLE_EQ(d.get_num("p_hat"), 0.05);
    EXPECT_DOUBLE_EQ(d.get_num("ci_low"), ci.lo);
    EXPECT_DOUBLE_EQ(d.get_num("ci_high"), ci.hi);
    EXPECT_EQ(d.get_num("faults_per_second", -1.0), 0.0);

    // Zero faults: no estimate yet, the whole unit interval.
    const report::JsonValue f = fleet_entry(daemon.port(), failed_id);
    EXPECT_EQ(f.get_uint("faults", 99), 0u);
    EXPECT_EQ(f.get_num("p_hat", -1.0), 0.0);
    EXPECT_EQ(f.get_num("ci_low", -1.0), 0.0);
    EXPECT_EQ(f.get_num("ci_high", -1.0), 1.0);
    daemon.stop();
}

TEST_F(FleetPlaneTest, FleetReportsARunningJobFromItsMetricsHistory) {
    ServiceDaemon daemon(options());
    Job sampled;
    sampled.fingerprint = "00000000000000a1";
    sampled.classified = 7;  // the job record lags; the samples win
    const std::uint64_t sampled_id = place(daemon, sampled, JobState::Running);
    telemetry::HistoryRing ring(
        {"faults", "critical", "masked", "inferences", "evaluate_seconds"});
    ring.append(1.0, {100, 7, 10, 400, 0.1});
    ring.append(1.5, {300, 21, 30, 1200, 0.3});
    ring.save(ResultCache::history_path(
        daemon.cache().ensure_dir(sampled.fingerprint)));
    // Running, but its sampler has not written a first sample yet.
    Job fresh;
    fresh.fingerprint = "00000000000000a2";
    fresh.classified = 12;
    fresh.critical = 3;
    const std::uint64_t fresh_id = place(daemon, fresh, JobState::Running);
    daemon.start();

    const report::JsonValue s = fleet_entry(daemon.port(), sampled_id);
    const stats::Interval ci = stats::wilson_interval(21, 300, 0.95);
    EXPECT_EQ(s.get_str("state"), "running");
    EXPECT_EQ(s.get_uint("faults"), 300u);
    EXPECT_DOUBLE_EQ(s.get_num("p_hat"), 21.0 / 300.0);
    EXPECT_DOUBLE_EQ(s.get_num("ci_low"), ci.lo);
    EXPECT_DOUBLE_EQ(s.get_num("ci_high"), ci.hi);
    // The rate between the last two samples: 200 faults in 0.5 s.
    EXPECT_DOUBLE_EQ(s.get_num("faults_per_second"), 400.0);

    const report::JsonValue f = fleet_entry(daemon.port(), fresh_id);
    EXPECT_EQ(f.get_uint("faults"), 12u);
    EXPECT_DOUBLE_EQ(f.get_num("p_hat"), 0.25);
    EXPECT_EQ(f.get_num("faults_per_second", -1.0), 0.0);
    daemon.stop();
}

TEST_F(FleetPlaneTest, UnwritableShardTraceIsANamedEventAndTheJobCompletes) {
    const std::string recipe =
        R"({"model":"micronet","approach":"layer-wise","margin":0.1,)"
        R"("confidence":0.9,"images":1,"policy":"golden","seed":5,)"
        R"("shards":2})";
    const std::string fingerprint =
        recipe_fingerprint(parse_submission(recipe).recipe);
    ServiceDaemon daemon(options());
    // A directory where shard 0's Chrome trace goes: the rename onto it
    // fails, and with it the export of that advisory artifact.
    const std::string blocked =
        shard::shard_trace_path(daemon.cache().dir_of(fingerprint), 0);
    fs::create_directories(blocked);
    daemon.start();

    const std::string response = testsupport::http_exchange(
        daemon.port(), "POST /campaigns HTTP/1.1\r\nHost: x\r\n"
                       "Content-Length: " +
                           std::to_string(recipe.size()) +
                           "\r\nConnection: close\r\n\r\n" + recipe);
    const std::uint64_t id =
        report::parse_json(http_body(response)).get_uint("id");
    ASSERT_GT(id, 0u) << response;
    std::string state;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (state != "done" && state != "failed" &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        state = report::parse_json(
                    http_body(http_get(daemon.port(),
                                       "/campaigns/" + std::to_string(id))))
                    .get_str("state");
    }
    daemon.stop();
    EXPECT_EQ(state, "done");

    std::ifstream in(options().state_dir + "/service.jsonl");
    const std::string log((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    bool named = false;
    for (const report::JsonValue& e : report::parse_json_lines(log))
        if (e.get_str("type") == "artifact_failed" &&
            e.get_str("artifact") == blocked) {
            named = true;
            EXPECT_EQ(e.get_uint("job"), id);
            EXPECT_FALSE(e.get_str("reason").empty());
        }
    EXPECT_TRUE(named) << "no artifact_failed for " << blocked << " in:\n"
                       << log;
}

}  // namespace
}  // namespace statfi::service
