// The checkpoint journal as the telemetry plane sees it: every journaled
// run — statistical or census — records flush latency, and a journal
// recovery is a named event in the log, not only a line on stderr.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "report/json_parse.hpp"
#include "telemetry/session.hpp"

namespace statfi::core {
namespace {

struct Fixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;
    ExecutorConfig config;

    static Fixture make() {
        auto net = models::build_model("micronet");
        stats::Rng rng(424242);
        nn::init_network_kaiming(net, rng);
        auto eval = data::make_synthetic({}, 2, "test");
        auto universe = fault::FaultUniverse::stuck_at(net);
        ExecutorConfig config;
        config.policy = ClassificationPolicy::GoldenMismatch;
        return Fixture{std::move(net), std::move(eval), std::move(universe),
                       config};
    }
};

std::string journal_path(const char* name) {
    const auto dir = std::filesystem::temp_directory_path() /
                     "statfi_journal_telemetry_test";
    std::filesystem::create_directories(dir);
    const auto path = dir / name;
    std::filesystem::remove(path);
    return path.string();
}

TEST(JournalTelemetry, StatisticalRunObservesFlushLatency) {
    auto fx = Fixture::make();
    telemetry::Session session;
    CampaignEngine engine(fx.net, fx.eval, fx.config, 1, &session);
    CampaignSpec spec;
    spec.approach = Approach::NetworkWise;
    spec.sample.error_margin = 0.05;
    const auto plan = engine.plan(fx.universe, spec);
    const auto items = draw_plan(fx.universe, plan, stats::Rng(11));
    ASSERT_GT(items.size(), 64u);

    DurabilityOptions options;
    options.journal_path = journal_path("flush.sfij");
    options.model_id = "micronet";
    options.flush_interval = 32;
    const auto run = engine.run_durable(fx.universe, plan, items, options);
    ASSERT_TRUE(run.complete);
    std::filesystem::remove(options.journal_path);

    const auto snap = session.metrics().snapshot();
    const auto* flushes = snap.find("statfi_checkpoint_flushes_total");
    const auto* latency = snap.find("statfi_checkpoint_flush_seconds");
    ASSERT_NE(flushes, nullptr);
    ASSERT_NE(latency, nullptr);
    EXPECT_GE(flushes->counter, items.size() / 32);
    EXPECT_GT(latency->count, 0u);
    EXPECT_EQ(latency->count, flushes->counter);
}

TEST(JournalTelemetry, FreshJournalIsNoRecovery) {
    // A journal path with no file behind it is a fresh start: nothing was
    // recovered, so there is neither an event nor a stderr note.
    auto fx = Fixture::make();
    DurabilityOptions options;
    options.journal_path = journal_path("fresh.sfij");
    options.model_id = "micronet";
    options.range_end = 512;

    std::ostringstream log;
    telemetry::Session session;
    session.attach_event_log(log);
    CampaignHeaderInfo header;
    header.command = "exhaustive";
    header.model = "micronet";
    emit_campaign_header(*session.events(), header);
    CampaignEngine engine(fx.net, fx.eval, fx.config, 1, &session);
    testing::internal::CaptureStderr();
    const auto run = engine.run_exhaustive_durable(fx.universe, options);
    const std::string err = testing::internal::GetCapturedStderr();
    std::filesystem::remove(options.journal_path);
    EXPECT_TRUE(run.complete);
    EXPECT_EQ(run.resumed, 0u);

    EXPECT_EQ(log.str().find("journal_recovered"), std::string::npos);
    EXPECT_EQ(err.find("journal"), std::string::npos) << err;
}

TEST(JournalTelemetry, TornJournalEmitsJournalRecovered) {
    auto fx = Fixture::make();
    DurabilityOptions options;
    options.journal_path = journal_path("torn.sfij");
    options.model_id = "micronet";
    options.range_end = 512;
    {
        CampaignEngine engine(fx.net, fx.eval, fx.config);
        ASSERT_TRUE(
            engine.run_exhaustive_durable(fx.universe, options).complete);
    }
    // Cut the last 13-byte record in half, as a crash mid-append would.
    const auto size = std::filesystem::file_size(options.journal_path);
    std::filesystem::resize_file(options.journal_path, size - 6);

    std::ostringstream log;
    telemetry::Session session;
    session.attach_event_log(log);
    CampaignHeaderInfo header;
    header.command = "exhaustive";
    header.model = "micronet";
    emit_campaign_header(*session.events(), header);
    CampaignEngine engine(fx.net, fx.eval, fx.config, 1, &session);
    const auto run = engine.run_exhaustive_durable(fx.universe, options);
    std::filesystem::remove(options.journal_path);
    EXPECT_TRUE(run.complete);
    EXPECT_EQ(run.resumed, 511u);
    EXPECT_EQ(run.classified, 1u);

    int recovered = 0;
    for (const auto& event : report::parse_json_lines(log.str())) {
        if (event.get_str("type") != "journal_recovered") continue;
        ++recovered;
        EXPECT_EQ(event.get_uint("valid_bytes"), size - 13);
        EXPECT_TRUE(event.get_bool("tail_dropped"));
        EXPECT_NE(event.get_str("note").find("torn"), std::string::npos);
    }
    EXPECT_EQ(recovered, 1);
}

}  // namespace
}  // namespace statfi::core
