// The campaign observatory routes (add_campaign_routes): /status as a fold
// over the campaign's own event log plus the live fault counter, /metrics,
// /trace, the index, 404/405 behavior and HEAD support — exercised with raw
// POSIX sockets so the test sees exactly the bytes a scraper would. The
// StatusFold test follows a real CampaignEngine census through its log
// while another thread scrapes, which is also what CI's thread-sanitizer
// leg runs.

#include "telemetry/http.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/http_client.hpp"
#include "../support/json_check.hpp"
#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "report/json_parse.hpp"
#include "telemetry/session.hpp"

namespace statfi::telemetry {
namespace {

namespace fs = std::filesystem;
using testsupport::http_body;
using testsupport::http_get;

/// A per-test scratch directory (ctest runs tests as parallel processes).
struct ScratchDir {
    fs::path path;
    ScratchDir() {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = fs::temp_directory_path() /
               ("statfi_http_test_" + std::string(info->name()) + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

core::CampaignHeaderInfo header_info() {
    core::CampaignHeaderInfo info;
    info.command = "exhaustive";
    info.model = "micronet";
    info.approach = "exhaustive";
    info.dtype = "fp32";
    info.policy = "golden-mismatch";
    info.seed = 77;
    info.images = 4;
    return info;
}

SessionOptions traced(bool trace = true) {
    SessionOptions o;
    o.enable_trace = trace;
    return o;
}

/// A session logging to a file, with its header emitted and the campaign
/// routes served on an ephemeral port.
struct ServerFixture {
    ScratchDir dir;
    Session session;
    HttpServer server{HttpServer::Options{}};

    explicit ServerFixture(bool trace = true) : session(traced(trace)) {
        session.bind_workers(1);
        session.open_event_log((dir.path / "campaign.jsonl").string());
        core::emit_campaign_header(*session.events(), header_info());
        add_campaign_routes(server, session);
        server.start();
    }

    [[nodiscard]] std::string get(const std::string& target,
                                  const std::string& method = "GET") {
        return http_get(server.port(), target, method);
    }
    [[nodiscard]] report::JsonValue status() {
        return report::parse_json(http_body(get("/status")));
    }
};

TEST(CampaignRoutes, EphemeralPortResolves) {
    ServerFixture fx;
    EXPECT_GT(fx.server.port(), 0);
}

TEST(CampaignRoutes, RequireAFileEventLog) {
    Session session;
    HttpServer server{HttpServer::Options{}};
    EXPECT_THROW(add_campaign_routes(server, session), std::invalid_argument);
    std::ostringstream buffer;
    session.attach_event_log(buffer);
    EXPECT_THROW(add_campaign_routes(server, session), std::invalid_argument);
}

TEST(CampaignRoutes, StatusIsOneJsonDocument) {
    ServerFixture fx;
    PhaseScope scope(&fx.session, "classify");
    const auto response = fx.get("/status");
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(response.find("application/json"), std::string::npos);
    const auto body = http_body(response);
    testsupport::JsonChecker checker(body);
    EXPECT_TRUE(checker.valid()) << "not valid JSON at byte "
                                 << checker.stopped_at() << ": " << body;
    EXPECT_NE(body.find("\"state\":\"running\""), std::string::npos);
    EXPECT_NE(body.find("\"phase\":\"classify\""), std::string::npos);
    EXPECT_NE(body.find("\"model\":\"micronet\""), std::string::npos);
}

TEST(CampaignRoutes, MetricsIsPrometheusText) {
    ServerFixture fx;
    fx.session.metrics().inc(0, fx.session.ids().faults_total, 42);
    const auto response = fx.get("/metrics");
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
    const auto body = http_body(response);
    EXPECT_NE(body.find("# TYPE statfi_faults_total counter"),
              std::string::npos);
    EXPECT_NE(body.find("statfi_faults_total 42"), std::string::npos);
}

TEST(CampaignRoutes, TraceServedWhenEnabled) {
    ServerFixture fx;
    { PhaseScope scope(&fx.session, "golden_pass"); }
    const auto response = fx.get("/trace");
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(http_body(response).find("golden_pass"), std::string::npos);
}

TEST(CampaignRoutes, TraceIs404WhenDisabled) {
    ServerFixture fx(/*trace=*/false);
    EXPECT_NE(fx.get("/trace").find("HTTP/1.1 404"), std::string::npos);
}

TEST(CampaignRoutes, IndexListsEndpoints) {
    ServerFixture fx;
    const auto body = http_body(fx.get("/"));
    EXPECT_NE(body.find("/status"), std::string::npos);
    EXPECT_NE(body.find("/metrics"), std::string::npos);
}

TEST(CampaignRoutes, UnknownTargetIs404) {
    ServerFixture fx;
    EXPECT_NE(fx.get("/nope").find("HTTP/1.1 404"), std::string::npos);
}

TEST(CampaignRoutes, NonGetIs405) {
    ServerFixture fx;
    EXPECT_NE(fx.get("/status", "POST").find("HTTP/1.1 405"),
              std::string::npos);
}

TEST(CampaignRoutes, HeadOmitsBody) {
    ServerFixture fx;
    const auto response = fx.get("/status", "HEAD");
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_TRUE(http_body(response).empty());
}

TEST(CampaignRoutes, CountsRequestsAndStopsIdempotently) {
    ServerFixture fx;
    (void)fx.get("/status");
    (void)fx.get("/metrics");
    EXPECT_GE(fx.server.requests_served(), 2u);
    fx.server.stop();
    fx.server.stop();  // second stop is a no-op
}

TEST(CampaignRoutes, FinishedStateAppears) {
    ServerFixture fx;
    EXPECT_EQ(fx.status().get_str("state"), "running");
    core::emit_campaign_end(*fx.session.events(), true, 0, 0, 0.5);
    EXPECT_EQ(fx.status().get_str("state"), "complete");
}

TEST(CampaignRoutes, InterruptedStateAppears) {
    ServerFixture fx;
    core::emit_campaign_end(*fx.session.events(), false, 0, 0, 0.5);
    EXPECT_EQ(fx.status().get_str("state"), "interrupted");
}

// --- a real campaign, observed through its log -----------------------------

struct Fixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;
};

const Fixture& fixture() {
    static const Fixture fx = [] {
        auto net = models::build_model("micronet");
        stats::Rng rng(77);
        nn::init_network_kaiming(net, rng);
        auto eval = data::make_synthetic({}, 4, "test");
        auto universe = fault::FaultUniverse::stuck_at(net);
        return Fixture{std::move(net), std::move(eval), std::move(universe)};
    }();
    return fx;
}

core::ExecutorConfig config() {
    core::ExecutorConfig c;
    c.policy = core::ClassificationPolicy::GoldenMismatch;
    return c;
}

std::vector<std::string> phase_stack(const report::JsonValue& status) {
    std::vector<std::string> stack;
    if (const report::JsonValue* phases = status.find("phase_stack"))
        for (const report::JsonValue& p : phases->array)
            stack.push_back(p.string);
    return stack;
}

/// The event of @p type in the log at @p path (first one).
report::JsonValue logged(const fs::path& path, const std::string& type) {
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    for (report::JsonValue& e : report::parse_json_lines(text))
        if (e.get_str("type") == type) return e;
    ADD_FAILURE() << "no " << type << " event in " << path;
    return {};
}

// A census shard over [0, 6000) resumes 2000 journaled outcomes and
// classifies the rest on one worker. /status is fetched from inside every
// progress heartbeat — the worker is parked there, so the counters hold
// still — while a second thread scrapes it concurrently.
TEST(StatusFold, FollowsARealCampaignThroughItsLog) {
    const Fixture& fx = fixture();
    ScratchDir dir;
    const fs::path log_path = dir.path / "census.jsonl";
    constexpr std::uint64_t kResumed = 2000, kRange = 6000;
    core::DurabilityOptions durability;
    durability.model_id = "micronet";
    durability.journal_path = (dir.path / "census.sfij").string();
    {  // an earlier, unobserved life journals the first 2000 outcomes
        core::CampaignEngine engine(fx.net, fx.eval, config(), 1);
        durability.range_end = kResumed;
        ASSERT_TRUE(engine.run_exhaustive_durable(fx.universe, durability)
                        .complete);
    }

    Session session(traced());
    session.open_event_log(log_path.string());
    EventLog& log = *session.events();
    core::emit_campaign_header(log, header_info());
    HttpServer server{HttpServer::Options{}};
    add_campaign_routes(server, session);
    server.start();
    const auto status = [&] {
        return report::parse_json(
            http_body(http_get(server.port(), "/status")));
    };
    const auto faults_total = [&] {
        const MetricsSnapshot snap = session.metrics().snapshot();
        return snap.find("statfi_faults_total")->counter;
    };
    // Joined on every exit path, a failed ASSERT's early return included.
    std::jthread scraper([&](const std::stop_token& stop) {
        while (!stop.stop_requested()) {
            (void)http_get(server.port(), "/status");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });

    core::emit_plan_event(log, fx.universe, core::plan_exhaustive(fx.universe));
    std::size_t heartbeats = 0;
    std::uint64_t critical = 0;
    {
        PhaseScope outer(&session, "status_test");
        log.emit(Event("shard_begin")
                     .field("shard", std::uint64_t{0})
                     .field("range_begin", std::uint64_t{0})
                     .field("range_end", kRange));
        core::CampaignEngine engine(fx.net, fx.eval, config(), 1, &session);
        durability.range_end = kRange;
        const auto run = engine.run_exhaustive_durable(
            fx.universe, durability, [&](const ProgressInfo&) {
                ++heartbeats;
                const report::JsonValue s = status();
                EXPECT_EQ(s.get_str("state"), "running");
                EXPECT_EQ(s.get_str("phase"), "census");
                EXPECT_EQ(phase_stack(s),
                          (std::vector<std::string>{"status_test", "census"}));
                const report::JsonValue* progress = s.find("progress");
                ASSERT_NE(progress, nullptr);
                EXPECT_EQ(progress->get_uint("done"),
                          kResumed + faults_total());
                EXPECT_EQ(progress->get_uint("total"), kRange);
                EXPECT_GT(progress->get_num("elapsed_seconds"), 0.0);
            });
        ASSERT_TRUE(run.complete);
        EXPECT_EQ(run.resumed, kResumed);
        critical = run.outcomes.critical_count(0, kRange);
        log.emit(Event("shard_end")
                     .field("shard", std::uint64_t{0})
                     .field("complete", true)
                     .field("resumed", run.resumed)
                     .field("classified", run.classified));
    }
    EXPECT_GT(heartbeats, 2u);

    // The campaign fields are the header's and the plan's, as logged.
    const report::JsonValue mid = status();
    const report::JsonValue header = logged(log_path, "campaign_header");
    const report::JsonValue plan = logged(log_path, "plan");
    const report::JsonValue* campaign = mid.find("campaign");
    ASSERT_NE(campaign, nullptr);
    for (const char* key : {"command", "model", "approach", "dtype", "policy"})
        EXPECT_EQ(campaign->get_str(key), header.get_str(key)) << key;
    EXPECT_EQ(campaign->get_uint("seed"), header.get_uint("seed"));
    EXPECT_EQ(campaign->get_uint("universe"), plan.get_uint("universe"));
    EXPECT_EQ(campaign->get_uint("planned"), plan.get_uint("planned"));
    EXPECT_EQ(campaign->get_uint("strata"), plan.get_uint("strata"));
    EXPECT_EQ(campaign->get_uint("shard", 99), 0u);
    EXPECT_EQ(mid.get_str("state"), "running");
    EXPECT_TRUE(phase_stack(mid).empty());

    core::emit_campaign_end(log, true, kRange, critical, 1.0);
    const report::JsonValue end = status();
    scraper.request_stop();
    EXPECT_EQ(end.get_str("state"), "complete");
    EXPECT_EQ(end.get_str("phase"), "idle");
    const report::JsonValue* progress = end.find("progress");
    ASSERT_NE(progress, nullptr);
    EXPECT_EQ(progress->get_uint("done"), kResumed + faults_total());
    EXPECT_EQ(progress->get_uint("done"), kRange);
    // The shard closed: the total is the campaign's plan again.
    EXPECT_EQ(progress->get_uint("total"), plan.get_uint("planned"));
    // Elapsed time stops on the log's clock at campaign_end.
    EXPECT_DOUBLE_EQ(progress->get_num("elapsed_seconds"),
                     logged(log_path, "campaign_end").get_num("ts"));
}

}  // namespace
}  // namespace statfi::telemetry
