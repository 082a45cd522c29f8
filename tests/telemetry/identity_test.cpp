// The telemetry no-perturbation contract: attaching a Session to an engine
// must not change a single outcome byte. Telemetry only observes — the
// census table with telemetry on is byte-identical to the table with
// telemetry off, and the statistical tallies match exactly. Also checks
// that the hot-path counters the instrumented run collected agree with the
// ground truth the run itself produced.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "fault/injector.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "telemetry/session.hpp"

namespace statfi::core {
namespace {

struct Fixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;

    static Fixture make() {
        auto net = models::build_model("micronet");
        stats::Rng rng(424242);
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

ExecutorConfig config() {
    ExecutorConfig c;
    c.policy = ClassificationPolicy::GoldenMismatch;
    return c;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

constexpr std::uint64_t kCensusSpan = 4096;  // capped: identity, not speed

TEST(TelemetryIdentity, CensusTableBytesIdenticalTelemetryOnVsOff) {
    auto& fx = fixture();
    DurabilityOptions durability;
    durability.range_end = kCensusSpan;

    const auto dir = std::filesystem::temp_directory_path();
    const std::string path_off = (dir / "statfi_identity_off.sfio").string();
    const std::string path_on = (dir / "statfi_identity_on.sfio").string();

    CampaignEngine off(fx.net, fx.eval, config(), 2);
    off.run_exhaustive_durable(fx.universe, durability)
        .outcomes.save(path_off);

    telemetry::SessionOptions options;
    options.enable_perf = true;  // harmless when unavailable (CI containers)
    telemetry::Session session(options);
    CampaignEngine on(fx.net, fx.eval, config(), 2, &session);
    const ExhaustiveRun run =
        on.run_exhaustive_durable(fx.universe, durability);
    run.outcomes.save(path_on);

    EXPECT_EQ(read_bytes(path_off), read_bytes(path_on));
    std::remove(path_off.c_str());
    std::remove(path_on.c_str());

    // The counters the instrumented run collected must agree with the run's
    // own ground truth.
    const auto snap = session.metrics().snapshot();
    ASSERT_NE(snap.find("statfi_faults_total"), nullptr);
    EXPECT_EQ(snap.find("statfi_faults_total")->counter, kCensusSpan);
    EXPECT_EQ(snap.find("statfi_faults_critical_total")->counter,
              run.outcomes.critical_count(0, kCensusSpan));
    // evaluate_seconds observes one sample per evaluate_group pass: one per
    // group of up to ensemble_width faults sharing a layer and family.
    const auto evaluate_samples =
        snap.find("statfi_evaluate_seconds")->count;
    EXPECT_GE(evaluate_samples,
              kCensusSpan / config().ensemble_width);
    EXPECT_LE(evaluate_samples, kCensusSpan);
    EXPECT_DOUBLE_EQ(snap.find("statfi_worker_count")->gauge, 2.0);
    EXPECT_DOUBLE_EQ(snap.find("statfi_golden_accuracy")->gauge,
                     on.golden_accuracy());
    // The masked counter agrees with the table's Masked bytes, and the
    // inference counter with the engine's own count.
    std::uint64_t masked = 0;
    for (std::uint64_t i = 0; i < kCensusSpan; ++i)
        masked += run.outcomes.at(i) == FaultOutcome::Masked ? 1 : 0;
    EXPECT_EQ(snap.find("statfi_faults_masked_total")->counter, masked);
    EXPECT_GT(masked, 0u);
    EXPECT_EQ(snap.find("statfi_inferences_total")->counter,
              on.inference_count());
    EXPECT_GT(on.inference_count(), 0u);
    // Lanes retired early as golden: counted per group like inferences,
    // and the same with telemetry off.
    EXPECT_EQ(snap.find("statfi_lanes_retired_total")->counter,
              on.retired_count());
    EXPECT_GT(on.retired_count(), 0u);
    EXPECT_EQ(on.retired_count(), off.retired_count());
    EXPECT_EQ(on.inference_count(), off.inference_count());
    // Phase spans were recorded for the orchestration phases.
    ASSERT_NE(session.trace(), nullptr);
    bool saw_census = false, saw_golden = false;
    for (const auto& e : session.trace()->events()) {
        saw_census = saw_census || e.name == "census";
        saw_golden = saw_golden || e.name == "golden_pass";
    }
    EXPECT_TRUE(saw_census);
    EXPECT_TRUE(saw_golden);
}

TEST(TelemetryIdentity, StatisticalTalliesIdenticalTelemetryOnVsOff) {
    auto& fx = fixture();
    stats::SampleSpec spec;
    spec.error_margin = 0.05;  // modest n: identity, not precision

    CampaignEngine off(fx.net, fx.eval, config(), 2);
    const auto plan = plan_layer_wise(fx.universe, spec);
    const auto expected = off.run(fx.universe, plan, stats::Rng(11));

    telemetry::Session session;
    CampaignEngine on(fx.net, fx.eval, config(), 2, &session);
    const auto got = on.run(fx.universe, plan, stats::Rng(11));

    ASSERT_EQ(got.subpops.size(), expected.subpops.size());
    for (std::size_t s = 0; s < got.subpops.size(); ++s) {
        EXPECT_EQ(got.subpops[s].injected, expected.subpops[s].injected);
        EXPECT_EQ(got.subpops[s].critical, expected.subpops[s].critical);
        EXPECT_EQ(got.subpops[s].masked, expected.subpops[s].masked);
    }
    EXPECT_EQ(got.total_critical(), expected.total_critical());

    const auto snap = session.metrics().snapshot();
    EXPECT_EQ(snap.find("statfi_faults_total")->counter,
              expected.total_injected());
}

}  // namespace
}  // namespace statfi::core
