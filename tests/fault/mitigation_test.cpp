// Tests for the mitigation layer: rule validation (negative paths must be
// rule-attributed), TMR masking semantics, and the clip hook's effect on
// exponent-bit criticality.

#include "fault/mitigation.hpp"

#include <gtest/gtest.h>

#include "core/classification_core.hpp"
#include "fault/universe.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"
#include "stats/rng.hpp"
#include "../support/reference_classifier.hpp"

namespace statfi::fault {
namespace {

using testsupport::evaluate_one;

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

std::string resolve_error(const MitigationConfig& config) {
    auto net = models::make_micronet();
    try {
        (void)resolve_mitigation(config, net);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(MitigationConfig, DescribeAndHash) {
    MitigationConfig none;
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.describe(), "none");
    EXPECT_EQ(none.descriptor_hash(), 0u);

    MitigationConfig config;
    config.clips.push_back(ClipRule{"*", -6.0f, 6.0f});
    config.tmr.push_back(TmrRule{"conv1"});
    EXPECT_FALSE(config.empty());
    EXPECT_EQ(config.describe(), "clip(*:-6:6)+tmr(conv1)");
    EXPECT_NE(config.descriptor_hash(), 0u);

    MitigationConfig other = config;
    other.clips[0].hi = 8.0f;
    EXPECT_NE(other.descriptor_hash(), config.descriptor_hash());
}

TEST(MitigationResolve, InvalidClipRangeIsRuleAttributed) {
    MitigationConfig config;
    config.clips.push_back(ClipRule{"*", -1.0f, 1.0f});
    config.clips.push_back(ClipRule{"conv1", 4.0f, 4.0f});  // lo == hi
    const std::string what = resolve_error(config);
    EXPECT_NE(what.find("clip rule #2"), std::string::npos) << what;
    EXPECT_NE(what.find("conv1"), std::string::npos) << what;
    EXPECT_NE(what.find("lo must be < hi"), std::string::npos) << what;
}

TEST(MitigationResolve, UnknownClipNodeIsRuleAttributed) {
    MitigationConfig config;
    config.clips.push_back(ClipRule{"conv99", -1.0f, 1.0f});
    const std::string what = resolve_error(config);
    EXPECT_NE(what.find("clip rule #1"), std::string::npos) << what;
    EXPECT_NE(what.find("conv99"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown graph node"), std::string::npos) << what;
}

TEST(MitigationResolve, TmrOnNonWeightNodeIsDistinctFromUnknown) {
    MitigationConfig on_relu;
    on_relu.tmr.push_back(TmrRule{"relu1"});  // a node, but no weights
    const std::string relu_what = resolve_error(on_relu);
    EXPECT_NE(relu_what.find("tmr rule #1"), std::string::npos) << relu_what;
    EXPECT_NE(relu_what.find("no injectable weights"), std::string::npos)
        << relu_what;

    MitigationConfig on_ghost;
    on_ghost.tmr.push_back(TmrRule{"conv99"});
    const std::string ghost_what = resolve_error(on_ghost);
    EXPECT_NE(ghost_what.find("tmr rule #1"), std::string::npos) << ghost_what;
    EXPECT_NE(ghost_what.find("unknown weight layer"), std::string::npos)
        << ghost_what;
}

TEST(MitigationResolve, WildcardsCoverEverything) {
    auto net = models::make_micronet();
    MitigationConfig config;
    config.clips.push_back(ClipRule{"*", -6.0f, 6.0f});
    config.tmr.push_back(TmrRule{"*"});
    const auto resolved = resolve_mitigation(config, net);
    EXPECT_TRUE(resolved.any_clip);
    for (const auto& clip : resolved.node_clips) ASSERT_TRUE(clip.has_value());
    for (std::size_t l = 0; l < resolved.tmr_layers.size(); ++l)
        EXPECT_TRUE(resolved.tmr_protects(static_cast<int>(l)));
    EXPECT_FALSE(resolved.tmr_protects(-1));
    EXPECT_FALSE(
        resolved.tmr_protects(static_cast<int>(resolved.tmr_layers.size())));
}

TEST(MitigationCampaign, TmrMasksWeightFaultsInProtectedLayer) {
    auto net = trained_net();
    const auto eval = eval_set(2);
    core::ExecutorConfig config;
    config.mitigation.tmr.push_back(TmrRule{"conv1"});
    core::ClassificationCore core(net, eval, config);
    const auto u = FaultUniverse::bit_flip(net);

    // Every fault in the protected layer is outvoted — Masked with no
    // inference; the unprotected layers still evaluate normally.
    const std::uint64_t before = core.inference_count();
    stats::Rng rng(3);
    for (int trial = 0; trial < 40; ++trial) {
        const auto f = u.decode(rng.uniform_below(u.layer_population(0)));
        ASSERT_EQ(f.layer, 0);
        EXPECT_EQ(evaluate_one(core, f), core::FaultOutcome::Masked);
    }
    EXPECT_EQ(core.inference_count(), before);

    const auto elsewhere =
        u.decode(u.subpop_offset(1, 30));  // conv2, exponent MSB
    EXPECT_NE(evaluate_one(core, elsewhere), core::FaultOutcome::Masked);
}

TEST(MitigationCampaign, ClipShrinksExponentFlipCriticality) {
    // Exponent-MSB flips blow a weight up to ~2^96x its value; clamping every
    // activation bounds the blast radius. Count critical outcomes over the
    // same fault set with and without the clip: the mitigated campaign must
    // not be worse, and on this trained micronet it is strictly better.
    const auto eval = eval_set(4);

    auto count_critical = [&](bool mitigated) {
        auto net = trained_net();
        core::ExecutorConfig config;
        if (mitigated)
            config.mitigation.clips.push_back(ClipRule{"*", -8.0f, 8.0f});
        core::ClassificationCore core(net, eval, config);
        const auto u = FaultUniverse::bit_flip(net);
        int critical = 0;
        stats::Rng rng(17);
        for (int trial = 0; trial < 60; ++trial) {
            const std::uint64_t weight =
                rng.uniform_below(u.layer(0).weight_count);
            const auto f = u.decode(u.subpop_offset(0, 30) + weight);
            critical += evaluate_one(core, f) == core::FaultOutcome::Critical;
        }
        return critical;
    };

    const int baseline = count_critical(false);
    const int hardened = count_critical(true);
    EXPECT_LE(hardened, baseline);
    EXPECT_GT(baseline, 0);  // the stratum is genuinely dangerous unmitigated
    EXPECT_LT(hardened, baseline);
}

TEST(MitigationCampaign, ClipAppliesToGoldenPassToo) {
    // The clip hook is part of the DEPLOYED network: once the core installs
    // it, every forward pass — the golden cache's included — runs clamped.
    auto net = trained_net();
    const auto eval = eval_set(8);
    const Tensor unclamped = net.forward(eval.image(0));
    float max_abs = 0.0f;
    for (std::size_t e = 0; e < static_cast<std::size_t>(unclamped.numel());
         ++e)
        max_abs = std::max(max_abs, std::abs(unclamped[e]));
    ASSERT_GT(max_abs, 0.01f);  // the clamp below genuinely binds

    core::ExecutorConfig config;
    config.mitigation.clips.push_back(ClipRule{"*", -0.01f, 0.01f});
    core::ClassificationCore clipped(net, eval, config);
    EXPECT_GE(clipped.golden_accuracy(), 0.0);
    EXPECT_LE(clipped.golden_accuracy(), 1.0);

    const Tensor clamped = net.forward(eval.image(0));
    for (std::size_t e = 0; e < static_cast<std::size_t>(clamped.numel()); ++e) {
        EXPECT_GE(clamped[e], -0.01f) << "logit " << e;
        EXPECT_LE(clamped[e], 0.01f) << "logit " << e;
    }
}

}  // namespace
}  // namespace statfi::fault
