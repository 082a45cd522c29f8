// Tests for the adaptive two-phase campaign.

#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/estimator.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"

namespace statfi::core {
namespace {

/// Synthetic ground truth with a controlled per-bit criticality profile.
struct TruthFixture {
    nn::Network net = models::make_micronet();
    fault::FaultUniverse universe = fault::FaultUniverse::stuck_at(net);
    ExhaustiveOutcomes truth{universe.total()};

    /// Mark bit 30 faults critical with rate ~0.5 and bit 24 with ~0.05.
    TruthFixture() {
        for (int l = 0; l < universe.layer_count(); ++l) {
            mark(l, 30, 2);   // every 2nd fault critical
            mark(l, 24, 20);  // every 20th
        }
    }
    void mark(int layer, int bit, std::uint64_t stride) {
        const auto base = universe.subpop_offset(layer, bit);
        for (std::uint64_t i = 0; i < universe.bit_population(layer);
             i += stride)
            truth.set(base + i, FaultOutcome::Critical);
    }
};

TEST(Adaptive, PilotPlusRefinementAccounting) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 20;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(1));
    EXPECT_EQ(result.pilot_injected,
              static_cast<std::uint64_t>(fx.universe.layer_count()) * 32 * 20);
    EXPECT_GT(result.refinement_injected, 0u);
    EXPECT_EQ(result.total_injected(),
              result.pilot_injected + result.refinement_injected);
    // Combined tallies count distinct faults only.
    std::uint64_t combined = 0;
    for (const auto& sp : result.combined.subpops) combined += sp.injected;
    EXPECT_LE(combined, result.total_injected());
    EXPECT_EQ(result.combined.subpops.size(),
              static_cast<std::size_t>(fx.universe.layer_count()) * 32);
}

TEST(Adaptive, SpendsWhereCriticalityIs) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 40;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(2));
    // Sum injections per bit position across layers.
    std::map<int, std::uint64_t> per_bit;
    for (const auto& sp : result.combined.subpops)
        per_bit[sp.plan.bit] += sp.injected;
    // The hot bit (30, p~0.5) must receive the largest budget; a cold bit
    // (e.g. 5, p=0) only the pilot.
    for (int bit = 0; bit < 32; ++bit)
        EXPECT_GE(per_bit[30], per_bit[bit]) << "bit " << bit;
    EXPECT_GT(per_bit[30], per_bit[5] * 2);
    EXPECT_GT(per_bit[24], per_bit[5]);
}

TEST(Adaptive, EstimatesMatchTruthWithinMargin) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 50;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(3));
    EstimatorConfig est_config;
    est_config.laplace_smoothing = true;
    const auto layers =
        estimate_layers(fx.universe, result.combined, est_config);
    int contained = 0;
    for (const auto& le : layers)
        contained +=
            le.estimate.contains(fx.truth.layer_critical_rate(fx.universe,
                                                              le.layer));
    EXPECT_GE(contained, 3);  // 99% intervals, 4 layers
}

TEST(Adaptive, CheaperThanDataUnaware) {
    TruthFixture fx;
    AdaptiveConfig config;
    const auto result =
        replay_adaptive(fx.universe, fx.truth, config, stats::Rng(4));
    const auto unaware =
        plan_data_unaware(fx.universe, config.spec).total_sample_size();
    EXPECT_LT(result.total_injected(), unaware);
}

TEST(Adaptive, DeterministicForFixedSeed) {
    TruthFixture fx;
    AdaptiveConfig config;
    config.pilot_size = 25;
    const auto a = replay_adaptive(fx.universe, fx.truth, config, stats::Rng(9));
    const auto b = replay_adaptive(fx.universe, fx.truth, config, stats::Rng(9));
    ASSERT_EQ(a.combined.subpops.size(), b.combined.subpops.size());
    for (std::size_t s = 0; s < a.combined.subpops.size(); ++s) {
        EXPECT_EQ(a.combined.subpops[s].injected, b.combined.subpops[s].injected);
        EXPECT_EQ(a.combined.subpops[s].critical, b.combined.subpops[s].critical);
    }
}

TEST(Adaptive, RejectsMismatchedTruth) {
    TruthFixture fx;
    ExhaustiveOutcomes wrong(17);
    EXPECT_THROW(replay_adaptive(fx.universe, wrong, {}, stats::Rng(1)),
                 std::invalid_argument);
}

TEST(Adaptive, LiveExecutionAgreesWithPolicy) {
    // The injecting variant on a trained network must reproduce the replay
    // over the same fixture's census stratum for stratum, for any worker
    // count: both draw identical indices, and the engine's outcomes are
    // deterministic per fault.
    auto net = models::make_micronet();
    stats::Rng rng(31);
    nn::init_network_kaiming(net, rng);
    data::SyntheticSpec spec;
    spec.noise_stddev = 0.8;
    auto train = data::make_synthetic(spec, 256, "train");
    nn::train_classifier(net, train.images, train.labels, 3, 32, {}, rng);
    auto eval = data::make_synthetic(spec, 3, "test");
    auto universe = fault::FaultUniverse::stuck_at(net);

    AdaptiveConfig config;
    config.pilot_size = 10;
    config.spec.error_margin = 0.05;
    CampaignEngine census(net, eval, {}, 3);  // the census is most of the cost
    const auto replayed = replay_adaptive(
        universe, census.run_exhaustive(universe), config, stats::Rng(5));
    for (const std::size_t workers : {1u, 3u}) {
        CampaignEngine engine(net, eval, {}, workers);
        const auto result =
            run_adaptive(engine, universe, config, stats::Rng(5));
        EXPECT_GT(result.total_injected(), 0u);
        EXPECT_EQ(result.pilot_injected, replayed.pilot_injected);
        EXPECT_EQ(result.refinement_injected, replayed.refinement_injected);
        ASSERT_EQ(result.combined.subpops.size(),
                  replayed.combined.subpops.size());
        for (std::size_t s = 0; s < result.combined.subpops.size(); ++s) {
            const auto& got = result.combined.subpops[s];
            const auto& want = replayed.combined.subpops[s];
            EXPECT_EQ(got.injected, want.injected) << workers << "w, " << s;
            EXPECT_EQ(got.critical, want.critical) << workers << "w, " << s;
            EXPECT_EQ(got.masked, want.masked) << workers << "w, " << s;
        }
        const auto network = estimate_network(universe, result.combined);
        EXPECT_GE(network.rate, 0.0);
        EXPECT_LE(network.rate, 1.0);
    }
}

}  // namespace
}  // namespace statfi::core
