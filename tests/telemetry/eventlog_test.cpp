// The statfi.eventlog.v1 contract: header-first invariant, envelope shape,
// per-stratum emission cadence, and — the load-bearing property — replay
// determinism: the same campaign produces a byte-identical log modulo the
// wall-clock fields (ts / seconds / wall_seconds), for any worker count.
// Also re-asserts the telemetry no-perturbation contract with the full
// observatory attached (event log file + the live campaign routes folding
// it): not one outcome byte may change.

#include "telemetry/eventlog.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "report/json_parse.hpp"
#include "telemetry/http.hpp"
#include "telemetry/session.hpp"

namespace statfi::telemetry {
namespace {

struct Fixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;

    static Fixture make() {
        auto net = models::build_model("micronet");
        stats::Rng rng(77);
        nn::init_network_kaiming(net, rng);
        auto eval = data::make_synthetic({}, 4, "test");
        auto universe = fault::FaultUniverse::stuck_at(net);
        return Fixture{std::move(net), std::move(eval), std::move(universe)};
    }
};

Fixture& fixture() {
    static Fixture fx = Fixture::make();
    return fx;
}

core::CampaignHeaderInfo header_info() {
    core::CampaignHeaderInfo info;
    info.command = "campaign";
    info.model = "micronet";
    info.approach = "network-wise";
    info.dtype = "fp32";
    info.policy = "golden-mismatch";
    info.seed = 99;
    info.images = 4;
    return info;
}

core::CampaignSpec spec() {
    core::CampaignSpec s;
    s.approach = core::Approach::NetworkWise;
    s.sample.error_margin = 0.05;
    s.sample.confidence = 0.95;
    return s;
}

core::ExecutorConfig config() {
    core::ExecutorConfig c;
    c.policy = core::ClassificationPolicy::GoldenMismatch;
    return c;
}

/// Run one fully-instrumented statistical campaign and return (log text,
/// result).
std::pair<std::string, core::CampaignResult> run_logged(std::size_t workers) {
    auto& fx = fixture();
    std::ostringstream buffer;
    Session session;
    session.attach_event_log(buffer);
    core::emit_campaign_header(*session.events(), header_info());
    core::CampaignEngine engine(fx.net, fx.eval, config(), workers, &session);
    const auto plan = engine.plan(fx.universe, spec());
    core::emit_plan_event(*session.events(), fx.universe, plan);
    auto result = engine.run(fx.universe, plan, stats::Rng(99).fork("campaign"));
    core::emit_campaign_end(*session.events(), true, result.total_injected(),
                            result.total_critical(), result.wall_seconds);
    return {buffer.str(), std::move(result)};
}

/// Blank the wall-clock fields — the ONLY nondeterministic bytes the schema
/// permits — so logs from different runs can be compared byte-for-byte.
std::string normalize(const std::string& log) {
    static const std::regex clock(
        "\"(ts|seconds|wall_seconds)\":-?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?");
    return std::regex_replace(log, clock, "\"$1\":_");
}

TEST(EventLog, HeaderFirstInvariant) {
    std::ostringstream out;
    EventLog log(out);
    EXPECT_THROW(log.emit(Event("phase_begin").field("phase", "x")),
                 std::logic_error);
    log.emit(Event("campaign_header").field("schema", EventLog::kSchemaName));
    log.emit(Event("phase_begin").field("phase", "x"));
    EXPECT_EQ(log.events_written(), 2u);
}

TEST(EventLog, EnvelopeShape) {
    std::ostringstream out;
    EventLog log(out);
    log.emit(Event("campaign_header").field("schema", EventLog::kSchemaName));
    log.emit(Event("phase_begin").field("phase", "classify"));
    log.emit(Event("phase_end").field("phase", "classify").field("seconds", 0.5));
    const auto events = report::parse_json_lines(out.str());
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].get_uint("v"), 1u);
        EXPECT_EQ(events[i].get_uint("seq"), i);
        EXPECT_NE(events[i].find("ts"), nullptr);
        EXPECT_NE(events[i].find("type"), nullptr);
    }
    EXPECT_EQ(events[0].get_str("type"), "campaign_header");
}

TEST(EventLog, HeaderAndPlanCarryFaultModelAndMitigation) {
    auto& fx = fixture();
    std::ostringstream buffer;
    Session session;
    session.attach_event_log(buffer);
    core::CampaignHeaderInfo info = header_info();
    info.fault_model = "mbu-k2";
    info.mitigation = "clip(*:-6:6)";
    core::emit_campaign_header(*session.events(), info);
    core::CampaignEngine engine(fx.net, fx.eval, config(), 1, &session);
    const auto plan = engine.plan(fx.universe, spec());
    core::emit_plan_event(*session.events(), fx.universe, plan);
    const auto events = report::parse_json_lines(buffer.str());
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[0].get_str("fault_model"), "mbu-k2");
    EXPECT_EQ(events[0].get_str("mitigation"), "clip(*:-6:6)");
    // The plan event derives the model from the universe itself (the
    // engine's plan() brackets itself in phase events, so search by type).
    bool saw_plan = false;
    for (const auto& event : events) {
        if (event.get_str("type") != "plan") continue;
        saw_plan = true;
        EXPECT_EQ(event.get_str("fault_model"), "stuck-at");
    }
    EXPECT_TRUE(saw_plan);

    // Defaults: a header built without explicit model/mitigation names the
    // paper's model and no mitigation — the fields are never absent.
    std::ostringstream plain;
    Session plain_session;
    plain_session.attach_event_log(plain);
    core::emit_campaign_header(*plain_session.events(), header_info());
    const auto defaults = report::parse_json_lines(plain.str());
    ASSERT_EQ(defaults.size(), 1u);
    EXPECT_EQ(defaults[0].get_str("fault_model"), "stuck-at");
    EXPECT_EQ(defaults[0].get_str("mitigation"), "none");
}

TEST(EventLog, OneCompactLinePerEvent) {
    auto [log, result] = run_logged(1);
    std::istringstream lines(log);
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++count;
    }
    const auto events = report::parse_json_lines(log);
    EXPECT_EQ(events.size(), count);  // nothing spans lines
}

TEST(EventLog, ReplayIsByteIdenticalModuloClock) {
    const auto a = run_logged(1);
    const auto b = run_logged(1);
    EXPECT_EQ(normalize(a.first), normalize(b.first));
    EXPECT_NE(a.first.find("\"type\":\"stratum_update\""), std::string::npos);
}

TEST(EventLog, WorkerCountNeverEntersTheLog) {
    const auto serial = run_logged(1);
    const auto parallel = run_logged(4);
    EXPECT_EQ(normalize(serial.first), normalize(parallel.first));
}

TEST(EventLog, StratumCadenceIsPowersOfTwoPlusFinal) {
    const auto [log, result] = run_logged(2);
    // done-values per stratum: strictly increasing, all but the last a
    // power of two, last == the stratum's injected tally.
    std::vector<std::vector<std::uint64_t>> done(result.subpops.size());
    for (const auto& ev : report::parse_json_lines(log)) {
        if (ev.get_str("type") != "stratum_update") continue;
        done[ev.get_uint("stratum")].push_back(ev.get_uint("done"));
    }
    for (std::size_t s = 0; s < done.size(); ++s) {
        ASSERT_FALSE(done[s].empty()) << "stratum " << s << " never reported";
        for (std::size_t i = 0; i + 1 < done[s].size(); ++i) {
            EXPECT_LT(done[s][i], done[s][i + 1]);
            const std::uint64_t d = done[s][i];
            EXPECT_EQ(d & (d - 1), 0u) << "non-final point not a power of 2";
        }
        EXPECT_EQ(done[s].back(), result.subpops[s].injected);
    }
}

TEST(EventLog, CensusEmitsOneExactStratumPerCell) {
    auto& fx = fixture();
    std::ostringstream buffer;
    Session session;
    session.attach_event_log(buffer);
    auto info = header_info();
    info.command = "exhaustive";
    info.approach = "exhaustive";
    core::emit_campaign_header(*session.events(), info);
    core::CampaignEngine engine(fx.net, fx.eval, config(), 2, &session);
    core::DurabilityOptions durability;
    durability.model_id = "micronet";
    durability.range_begin = 0;
    durability.range_end = fx.universe.total();
    const auto run = engine.run_exhaustive_durable(fx.universe, durability);
    ASSERT_TRUE(run.complete);

    std::size_t strata = 0;
    for (const auto& ev : report::parse_json_lines(buffer.str())) {
        if (ev.get_str("type") != "stratum_update") continue;
        ++strata;
        // A full census: done == planned == population, Wald-FPC collapses.
        EXPECT_EQ(ev.get_uint("done"), ev.get_uint("population"));
        EXPECT_EQ(ev.get_uint("planned"), ev.get_uint("population"));
        EXPECT_NEAR(ev.get_num("wald_lo"), ev.get_num("wald_hi"), 1e-12);
        EXPECT_NEAR(ev.get_num("p_hat"), ev.get_num("wald_lo"), 1e-12);
    }
    EXPECT_EQ(strata, static_cast<std::size_t>(fx.universe.layer_count()) *
                          static_cast<std::size_t>(fx.universe.bits()));
}

TEST(EventLog, FullObservatoryNeverPerturbsOutcomes) {
    auto& fx = fixture();
    // Bare run: no telemetry at all.
    core::CampaignEngine bare(fx.net, fx.eval, config(), 2);
    const auto bare_plan = bare.plan(fx.universe, spec());
    const auto truth =
        bare.run(fx.universe, bare_plan, stats::Rng(99).fork("campaign"));

    // Observed run: an event log file AND the live campaign routes, whose
    // /status folds that file.
    const std::string log_path =
        (std::filesystem::temp_directory_path() /
         ("statfi_eventlog_observed_" + std::to_string(::getpid()) + ".jsonl"))
            .string();
    SessionOptions options;
    options.enable_trace = true;
    Session session(options);
    session.open_event_log(log_path);
    core::emit_campaign_header(*session.events(), header_info());
    HttpServer server{HttpServer::Options{}};
    add_campaign_routes(server, session);
    server.start();
    ASSERT_GT(server.port(), 0);
    core::CampaignEngine observed(fx.net, fx.eval, config(), 2, &session);
    const auto observed_plan = observed.plan(fx.universe, spec());
    const auto result =
        observed.run(fx.universe, observed_plan, stats::Rng(99).fork("campaign"));

    ASSERT_EQ(truth.subpops.size(), result.subpops.size());
    for (std::size_t s = 0; s < truth.subpops.size(); ++s) {
        EXPECT_EQ(truth.subpops[s].injected, result.subpops[s].injected);
        EXPECT_EQ(truth.subpops[s].critical, result.subpops[s].critical);
        EXPECT_EQ(truth.subpops[s].masked, result.subpops[s].masked);
    }
    server.stop();
    std::filesystem::remove(log_path);
}

}  // namespace
}  // namespace statfi::telemetry
