// Tests for the shared classification kernel and the campaign facade built
// on it: classification correctness, the masked short-circuit, run/replay
// equivalence, and outcome persistence.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/planner.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"
#include "../support/reference_classifier.hpp"

namespace statfi::core {
namespace {

using testsupport::evaluate_one;

struct Fixture {
    nn::Network net;
    data::Dataset eval;
    fault::FaultUniverse universe;

    static Fixture make(int eval_images = 6) {
        auto net = models::make_micronet();
        stats::Rng rng(31337);
        nn::init_network_kaiming(net, rng);
        data::SyntheticSpec spec;
        spec.noise_stddev = 0.8;
        auto train = data::make_synthetic(spec, 256, "train");
        nn::train_classifier(net, train.images, train.labels, 4, 32, {}, rng);
        auto eval = data::make_synthetic(spec, eval_images, "test");
        auto universe = fault::FaultUniverse::stuck_at(net);
        return Fixture{std::move(net), std::move(eval), std::move(universe)};
    }
};

TEST(Classification, GoldenAccuracyMatchesDirectEvaluation) {
    auto fx = Fixture::make(16);
    CampaignEngine engine(fx.net, fx.eval);
    const Tensor logits = fx.net.forward(fx.eval.images);
    EXPECT_DOUBLE_EQ(engine.golden_accuracy(),
                     nn::top1_accuracy(logits, fx.eval.labels));
    ASSERT_EQ(engine.golden_predictions().size(), 16u);
}

TEST(Classification, BatchedGoldenPassMatchesPerImageForwards) {
    // The golden cache is built with one batched forward over the whole
    // eval tensor; it must be bit-identical to forwarding image by image.
    auto fx = Fixture::make(8);
    ClassificationCore core(fx.net, fx.eval);
    for (std::int64_t i = 0; i < fx.eval.size(); ++i) {
        const Tensor logits = fx.net.forward(fx.eval.image(i));
        EXPECT_EQ(core.golden_predictions()[static_cast<std::size_t>(i)],
                  nn::argmax_row(logits, 0))
            << "image " << i;
    }
}

TEST(Classification, RejectsEmptyEvalSet) {
    auto fx = Fixture::make();
    data::Dataset empty;
    EXPECT_THROW(CampaignEngine(fx.net, empty), std::invalid_argument);
}

TEST(Classification, MaskedFaultSkipsInference) {
    auto fx = Fixture::make();
    ClassificationCore core(fx.net, fx.eval);
    // Find a masked fault (bit 30 stuck-at-0 on Kaiming weights).
    fault::Fault f;
    f.layer = 0;
    f.weight_index = 0;
    f.bit = 30;
    f.model = fault::FaultModel::StuckAt0;
    const auto before = core.inference_count();
    EXPECT_EQ(evaluate_one(core, f), FaultOutcome::Masked);
    EXPECT_EQ(core.inference_count(), before);
}

TEST(Classification, ExponentMsbStuckAt1IsOftenCritical) {
    // Setting bit 30 makes |w| ~ 2^k astronomically large. A negative weight
    // can still be masked downstream by ReLU (the channel just dies), so not
    // every such fault is critical — but a large fraction must be.
    auto fx = Fixture::make();
    ClassificationCore core(fx.net, fx.eval);
    int critical = 0;
    constexpr int kProbes = 50;
    for (int w = 0; w < kProbes; ++w) {
        fault::Fault f;
        f.layer = 0;
        f.weight_index = static_cast<std::uint64_t>(w);
        f.bit = 30;
        f.model = fault::FaultModel::StuckAt1;
        critical += evaluate_one(core, f) == FaultOutcome::Critical;
    }
    EXPECT_GE(critical, kProbes / 4);
}

TEST(Classification, MantissaLsbIsNonCritical) {
    auto fx = Fixture::make();
    ClassificationCore core(fx.net, fx.eval);
    fault::Fault f;
    f.layer = 2;
    f.weight_index = 7;
    f.bit = 0;
    f.model = fault::FaultModel::StuckAt1;
    const auto outcome = evaluate_one(core, f);
    EXPECT_TRUE(outcome == FaultOutcome::NonCritical ||
                outcome == FaultOutcome::Masked);
}

TEST(Classification, EvaluateIsDeterministicAndRestores) {
    auto fx = Fixture::make();
    ClassificationCore core(fx.net, fx.eval);
    stats::Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        const auto f = fx.universe.decode(rng.uniform_below(fx.universe.total()));
        const auto a = evaluate_one(core, f);
        const auto b = evaluate_one(core, f);
        EXPECT_EQ(a, b) << f.to_string();
    }
    // Weights restored -> golden accuracy unchanged.
    const Tensor logits = fx.net.forward(fx.eval.images);
    EXPECT_DOUBLE_EQ(core.golden_accuracy(),
                     nn::top1_accuracy(logits, fx.eval.labels));
}

TEST(Classification, PoliciesOrderedByStrictness) {
    // GoldenMismatch triggers at least as often as AnyMisprediction, which
    // triggers at least as often as a 50% accuracy-drop policy.
    auto fx = Fixture::make();
    ExecutorConfig any_cfg;
    any_cfg.policy = ClassificationPolicy::AnyMisprediction;
    ExecutorConfig golden_cfg;
    golden_cfg.policy = ClassificationPolicy::GoldenMismatch;
    ExecutorConfig drop_cfg;
    drop_cfg.policy = ClassificationPolicy::AccuracyDrop;
    drop_cfg.accuracy_drop_threshold = 0.5;

    CampaignEngine any_engine(fx.net, fx.eval, any_cfg);
    CampaignEngine golden_engine(fx.net, fx.eval, golden_cfg);
    CampaignEngine drop_engine(fx.net, fx.eval, drop_cfg);

    stats::Rng rng(10);
    int any_crit = 0, golden_crit = 0, drop_crit = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto f = fx.universe.decode(rng.uniform_below(fx.universe.total()));
        const auto critical = [&](CampaignEngine& engine) {
            return evaluate_one(engine.core(), f) == FaultOutcome::Critical;
        };
        any_crit += critical(any_engine);
        golden_crit += critical(golden_engine);
        drop_crit += critical(drop_engine);
    }
    EXPECT_GE(golden_crit, any_crit);
    EXPECT_GE(any_crit, drop_crit);
}

TEST(Classification, RunCoversPlannedSampleSizes) {
    auto fx = Fixture::make();
    CampaignEngine engine(fx.net, fx.eval);
    const auto plan = plan_layer_wise(fx.universe, stats::SampleSpec{});
    const auto result = engine.run(fx.universe, plan, stats::Rng(1));
    EXPECT_EQ(result.approach, Approach::LayerWise);
    ASSERT_EQ(result.subpops.size(), plan.subpops.size());
    for (std::size_t i = 0; i < plan.subpops.size(); ++i) {
        EXPECT_EQ(result.subpops[i].injected, plan.subpops[i].sample_size);
        EXPECT_LE(result.subpops[i].critical, result.subpops[i].injected);
        EXPECT_LE(result.subpops[i].masked, result.subpops[i].injected);
    }
    EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Classification, NetworkWiseRunRecordsPerLayerTallies) {
    auto fx = Fixture::make();
    CampaignEngine engine(fx.net, fx.eval);
    stats::SampleSpec spec;
    spec.error_margin = 0.05;  // small n for test speed
    const auto plan = plan_network_wise(fx.universe, spec);
    const auto result = engine.run(fx.universe, plan, stats::Rng(2));
    ASSERT_EQ(result.subpops.size(), 1u);
    const auto& sp = result.subpops[0];
    ASSERT_EQ(sp.layer_injected.size(), 4u);
    std::uint64_t sum = 0, crit = 0;
    for (std::size_t l = 0; l < 4; ++l) {
        sum += sp.layer_injected[l];
        crit += sp.layer_critical[l];
    }
    EXPECT_EQ(sum, sp.injected);
    EXPECT_EQ(crit, sp.critical);
}

TEST(Classification, ExhaustiveThenReplayEqualsDirectRun) {
    // The central equivalence: replaying a plan against exhaustive outcomes
    // must produce bit-identical tallies to actually injecting the sample.
    auto fx = Fixture::make(4);
    CampaignEngine engine(fx.net, fx.eval);
    const auto truth = engine.run_exhaustive(fx.universe);

    stats::SampleSpec spec;
    spec.error_margin = 0.03;
    for (const auto& plan : {plan_network_wise(fx.universe, spec),
                             plan_layer_wise(fx.universe, spec)}) {
        const auto direct = engine.run(fx.universe, plan, stats::Rng(77));
        const auto replayed = replay(fx.universe, plan, truth, stats::Rng(77));
        ASSERT_EQ(direct.subpops.size(), replayed.subpops.size());
        for (std::size_t i = 0; i < direct.subpops.size(); ++i) {
            EXPECT_EQ(direct.subpops[i].injected, replayed.subpops[i].injected);
            EXPECT_EQ(direct.subpops[i].critical, replayed.subpops[i].critical);
            EXPECT_EQ(direct.subpops[i].masked, replayed.subpops[i].masked);
            EXPECT_EQ(direct.subpops[i].layer_injected,
                      replayed.subpops[i].layer_injected);
        }
    }
}

TEST(Classification, ExhaustiveOutcomeTableShape) {
    auto fx = Fixture::make(4);
    CampaignEngine engine(fx.net, fx.eval);
    std::uint64_t last_done = 0;
    const auto truth = engine.run_exhaustive(
        fx.universe,
        [&](const ProgressInfo& p) {
            EXPECT_LE(p.done, p.total);
            EXPECT_GE(p.faults_per_second, 0.0);
            EXPECT_GE(p.eta_seconds, 0.0);
            last_done = p.done;
        });
    EXPECT_EQ(last_done, fx.universe.total());
    EXPECT_EQ(truth.size(), fx.universe.total());
    // Exactly half of all stuck-at faults are masked.
    std::uint64_t masked = 0;
    for (std::uint64_t i = 0; i < truth.size(); ++i)
        masked += truth.at(i) == FaultOutcome::Masked;
    EXPECT_EQ(masked, fx.universe.total() / 2);
    // Criticality concentrated in exponent-MSB subpopulations.
    const double msb_rate = truth.subpop_critical_rate(fx.universe, 0, 30);
    const double lsb_rate = truth.subpop_critical_rate(fx.universe, 0, 0);
    EXPECT_GT(msb_rate, 0.3);
    EXPECT_LT(lsb_rate, msb_rate);
    EXPECT_GT(truth.network_critical_rate(), 0.0);
    EXPECT_LT(truth.network_critical_rate(), 0.2);
}

TEST(Classification, OutcomesSaveLoadRoundTrip) {
    ExhaustiveOutcomes outcomes(100);
    outcomes.set(3, FaultOutcome::Critical);
    outcomes.set(50, FaultOutcome::Masked);
    const auto path =
        (std::filesystem::temp_directory_path() / "statfi_outcomes_test.sfio")
            .string();
    outcomes.save(path);
    const auto loaded = ExhaustiveOutcomes::load(path);
    ASSERT_EQ(loaded.size(), 100u);
    EXPECT_EQ(loaded.at(3), FaultOutcome::Critical);
    EXPECT_EQ(loaded.at(50), FaultOutcome::Masked);
    EXPECT_EQ(loaded.at(0), FaultOutcome::NonCritical);
    EXPECT_EQ(loaded.critical_count(0, 100), 1u);
    std::filesystem::remove(path);
}

TEST(Classification, OutcomesLoadRejectsGarbage) {
    const auto path =
        (std::filesystem::temp_directory_path() / "statfi_garbage.sfio").string();
    std::ofstream(path) << "not an outcome file";
    EXPECT_THROW(ExhaustiveOutcomes::load(path), std::runtime_error);
    std::filesystem::remove(path);
    EXPECT_THROW(ExhaustiveOutcomes::load("/nonexistent/file.sfio"),
                 std::runtime_error);
}

TEST(Classification, OutcomeRangeChecks) {
    ExhaustiveOutcomes outcomes(10);
    EXPECT_THROW(outcomes.critical_count(5, 11), std::out_of_range);
    EXPECT_THROW(outcomes.critical_count(7, 3), std::out_of_range);
    EXPECT_DOUBLE_EQ(outcomes.critical_rate(3, 3), 0.0);
}

TEST(Classification, CriticalCountPrefixSumTracksMutation) {
    // critical_count is backed by a lazily built prefix-sum index; it must
    // stay consistent when outcomes are rewritten after the first query.
    ExhaustiveOutcomes outcomes(64);
    for (std::uint64_t i = 0; i < 64; i += 4)
        outcomes.set(i, FaultOutcome::Critical);
    EXPECT_EQ(outcomes.critical_count(0, 64), 16u);
    EXPECT_EQ(outcomes.critical_count(0, 1), 1u);
    EXPECT_EQ(outcomes.critical_count(1, 4), 0u);
    outcomes.set(0, FaultOutcome::Masked);   // invalidates the index
    outcomes.set(2, FaultOutcome::Critical);
    EXPECT_EQ(outcomes.critical_count(0, 64), 16u);
    EXPECT_EQ(outcomes.critical_count(0, 4), 1u);
    // A copy answers independently of the original's cached index.
    const ExhaustiveOutcomes copy = outcomes;
    EXPECT_EQ(copy.critical_count(0, 64), 16u);
}

TEST(Classification, ReplayRejectsSizeMismatch) {
    auto fx = Fixture::make(4);
    ExhaustiveOutcomes wrong(10);
    const auto plan = plan_network_wise(fx.universe, stats::SampleSpec{});
    EXPECT_THROW(replay(fx.universe, plan, wrong, stats::Rng(1)),
                 std::invalid_argument);
}

TEST(Classification, PolicyNames) {
    EXPECT_STREQ(to_string(ClassificationPolicy::AnyMisprediction),
                 "any-misprediction");
    EXPECT_STREQ(to_string(ClassificationPolicy::GoldenMismatch),
                 "golden-mismatch");
    EXPECT_STREQ(to_string(ClassificationPolicy::AccuracyDrop),
                 "accuracy-drop");
}

}  // namespace
}  // namespace statfi::core
