// Tests for the transient activation-flip fault model through the unified
// FaultUniverse / ClassificationCore / CampaignEngine path (the dedicated
// ActivationUniverse + ActivationCampaignExecutor it replaced are gone).

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"
#include "stats/rng.hpp"
#include "../support/reference_classifier.hpp"

namespace statfi::fault {
namespace {

using testsupport::evaluate_one;

const Shape kImage{3, 32, 32};

nn::Network trained_net() {
    auto net = models::make_micronet();
    stats::Rng rng(55);
    nn::init_network_kaiming(net, rng);
    data::SyntheticSpec spec;
    spec.noise_stddev = 0.8;
    auto train = data::make_synthetic(spec, 256, "train");
    nn::train_classifier(net, train.images, train.labels, 3, 32, {}, rng);
    return net;
}

data::Dataset eval_set(int images) {
    data::SyntheticSpec spec;
    spec.noise_stddev = 0.8;
    return data::make_synthetic(spec, images, "test");
}

TEST(ActivationUniverse, PopulationsMatchActivationShapes) {
    auto net = models::make_micronet();
    const auto u = FaultUniverse::activation(net, kImage);
    ASSERT_EQ(u.layer_count(), net.node_count());
    EXPECT_EQ(u.kind(), FaultModelKind::ActivationBitFlip);
    EXPECT_EQ(u.polarities(), 1);
    EXPECT_FALSE(u.permanent());
    // conv1 output: 6x32x32 = 6144 elements -> 6144*32 faults.
    EXPECT_EQ(u.layer(0).weight_count, 6u * 32 * 32);
    EXPECT_EQ(u.layer_population(0), 6u * 32 * 32 * 32);
    // Final FC output: 10 logits.
    EXPECT_EQ(u.layer(u.layer_count() - 1).weight_count, 10u);
    std::uint64_t sum = 0;
    for (int n = 0; n < u.layer_count(); ++n) sum += u.layer_population(n);
    EXPECT_EQ(sum, u.total());
}

TEST(ActivationUniverse, EncodeDecodeBijection) {
    auto net = models::make_micronet();
    const auto u = FaultUniverse::activation(net, kImage);
    stats::Rng rng(7);
    for (int trial = 0; trial < 3000; ++trial) {
        const std::uint64_t idx = rng.uniform_below(u.total());
        const Fault f = u.decode(idx);
        EXPECT_EQ(u.encode(f), idx);
        EXPECT_EQ(f.model, FaultModel::ActivationFlip);
        EXPECT_GE(f.layer, 0);
        EXPECT_LT(f.layer, u.layer_count());
        EXPECT_LT(f.weight_index,
                  u.layer(f.layer).weight_count);
        EXPECT_GE(f.bit, 0);
        EXPECT_LT(f.bit, 32);
    }
}

TEST(ActivationUniverse, NodeOffsetsAreContiguous) {
    auto net = models::make_micronet();
    const auto u = FaultUniverse::activation(net, kImage);
    std::uint64_t expected = 0;
    for (int n = 0; n < u.layer_count(); ++n) {
        EXPECT_EQ(u.subpop_offset(n, 0), expected);
        const auto first = u.decode(expected);
        EXPECT_EQ(first.layer, n);
        expected += u.layer_population(n);
    }
    EXPECT_EQ(expected, u.total());
}

TEST(ActivationUniverse, RejectsOutOfRangeAndForeignFaults) {
    auto net = models::make_micronet();
    const auto u = FaultUniverse::activation(net, kImage);
    EXPECT_THROW(u.decode(u.total()), std::out_of_range);
    EXPECT_THROW(u.layer_population(-1), std::out_of_range);
    Fault bad = u.decode(0);
    bad.layer = u.layer_count();
    EXPECT_THROW(u.encode(bad), std::out_of_range);
    // A weight-family fault does not belong to an activation universe.
    Fault foreign = u.decode(0);
    foreign.model = FaultModel::BitFlip;
    EXPECT_THROW(u.encode(foreign), std::invalid_argument);
}

TEST(ActivationUniverse, ToStringReadable) {
    Fault f;
    f.model = FaultModel::ActivationFlip;
    f.layer = 2;
    f.weight_index = 99;
    f.bit = 30;
    EXPECT_EQ(f.to_string(), "N2.e99.b30.act");
}

TEST(ActivationCampaign, EvaluateIsDeterministicAndRestoresState) {
    auto net = trained_net();
    const auto eval = eval_set(3);
    core::ClassificationCore core(net, eval);
    const auto u = FaultUniverse::activation(net, kImage);

    stats::Rng rng(9);
    for (int trial = 0; trial < 100; ++trial) {
        const auto f = u.decode(rng.uniform_below(u.total()));
        const auto a = evaluate_one(core, f);
        const auto b = evaluate_one(core, f);
        EXPECT_EQ(a, b) << f.to_string();  // deterministic => state restored
    }
}

TEST(ActivationCampaign, ExponentMsbFlipOnLogitsIsCritical) {
    auto net = trained_net();
    const auto eval = eval_set(2);
    core::ExecutorConfig config;
    config.policy = core::ClassificationPolicy::GoldenMismatch;
    core::ClassificationCore core(net, eval, config);
    const auto u = FaultUniverse::activation(net, kImage);

    // Flip the exponent MSB of each logit: a *positive* non-winning logit
    // explodes past the winner (critical); a negative one sinks further
    // (benign). With ~half the logits positive, several must flip the top-1.
    const int last = u.layer_count() - 1;
    int critical = 0;
    for (std::uint64_t e = 0; e < u.layer(last).weight_count; ++e) {
        Fault f;
        f.model = FaultModel::ActivationFlip;
        f.layer = last;
        f.weight_index = e;
        f.bit = 30;
        critical += evaluate_one(core, f) == core::FaultOutcome::Critical;
    }
    EXPECT_GE(critical, 2);
    EXPECT_LT(critical, 10);  // the winner's own flip only reinforces it
}

TEST(ActivationCampaign, MantissaLsbFlipIsBenign) {
    auto net = trained_net();
    const auto eval = eval_set(2);
    core::ClassificationCore core(net, eval);
    const auto u = FaultUniverse::activation(net, kImage);
    stats::Rng rng(10);
    for (int trial = 0; trial < 50; ++trial) {
        Fault f;
        f.model = FaultModel::ActivationFlip;
        f.layer = static_cast<int>(rng.uniform_below(
            static_cast<std::uint64_t>(u.layer_count())));
        f.weight_index = rng.uniform_below(u.layer(f.layer).weight_count);
        f.bit = 0;
        EXPECT_EQ(evaluate_one(core, f), core::FaultOutcome::NonCritical)
            << f.to_string();
    }
}

TEST(ActivationCampaign, NodeWisePlanAndRunThroughEngine) {
    auto net = trained_net();
    const auto eval = eval_set(3);
    core::CampaignEngine engine(net, eval);
    const auto u = FaultUniverse::activation(net, kImage);

    core::CampaignSpec spec;
    spec.approach = core::Approach::LayerWise;
    spec.sample.error_margin = 0.05;
    const auto plan = engine.plan(u, spec);
    ASSERT_EQ(plan.subpops.size(), static_cast<std::size_t>(u.layer_count()));
    const auto result = engine.run(u, plan, stats::Rng(77));
    ASSERT_EQ(result.subpops.size(), plan.subpops.size());
    for (std::size_t s = 0; s < result.subpops.size(); ++s) {
        EXPECT_EQ(result.subpops[s].injected, plan.subpops[s].sample_size);
        EXPECT_LE(result.subpops[s].critical, result.subpops[s].injected);
    }
}

TEST(ActivationCampaign, BitIdenticalAcrossWorkerCounts) {
    auto net = trained_net();
    const auto eval = eval_set(3);
    const auto u = FaultUniverse::activation(net, kImage);
    core::CampaignSpec spec;
    spec.approach = core::Approach::NetworkWise;
    spec.sample.error_margin = 0.06;

    auto tallies = [&](std::size_t workers) {
        auto clone = net.clone();
        core::CampaignEngine engine(clone, eval, {}, workers);
        const auto plan = engine.plan(u, spec);
        return engine.run(u, plan, stats::Rng(31));
    };
    const auto serial = tallies(1);
    const auto threaded = tallies(3);
    ASSERT_EQ(serial.subpops.size(), threaded.subpops.size());
    for (std::size_t s = 0; s < serial.subpops.size(); ++s) {
        EXPECT_EQ(serial.subpops[s].injected, threaded.subpops[s].injected);
        EXPECT_EQ(serial.subpops[s].critical, threaded.subpops[s].critical);
    }
}

TEST(ActivationCampaign, DataAwarePlanningRefused) {
    auto net = trained_net();
    const auto eval = eval_set(2);
    core::CampaignEngine engine(net, eval);
    const auto u = FaultUniverse::activation(net, kImage);
    core::CampaignSpec spec;
    spec.approach = core::Approach::DataAware;
    try {
        (void)engine.plan(u, spec);
        FAIL() << "data-aware planning must refuse activation universes";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("data-aware"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("activation"),
                  std::string::npos);
    }
}

TEST(ActivationCampaign, RejectsBadIndices) {
    auto net = trained_net();
    const auto eval = eval_set(2);
    core::ClassificationCore core(net, eval);
    Fault f;
    f.model = FaultModel::ActivationFlip;
    f.layer = 999;
    EXPECT_THROW(evaluate_one(core, f), std::out_of_range);
    f.layer = 0;
    f.weight_index = 1u << 30;
    EXPECT_THROW(evaluate_one(core, f), std::out_of_range);
}

}  // namespace
}  // namespace statfi::fault
