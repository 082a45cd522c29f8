// Tests for the fault-batched ensemble forward, the only way
// ClassificationCore classifies a fault: evaluate_group() must be
// bit-identical — outcomes AND inference counts — to the per-fault oracle
// in tests/support/reference_classifier.hpp, for every fault model,
// classification policy, mitigation, and ensemble width (1 included), on
// MicroNet and on the deep topologies whose residual Adds, PadShortcuts and
// depthwise convs the frontier and suffix stacking must reproduce.
// Grouping is a throughput knob like the worker count; this suite is the
// contract that keeps it from ever becoming a semantic one. The oracle runs
// every suffix to the logits, so the same identity checks the exact early
// exit (lanes golden again leave the ensemble); the retirement count must
// not depend on the grouping either, and stated stretches must retire.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "models/micronet.hpp"
#include "models/registry.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/elementwise.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/trainer.hpp"
#include "../support/reference_classifier.hpp"

namespace statfi::core {
namespace {

using testsupport::ReferenceClassifier;

constexpr std::size_t kWidths[] = {1, 2, 3, 8, 64};

struct Fixture {
    nn::Network net;
    data::Dataset eval;

    static Fixture make(int eval_images = 6) {
        auto net = models::make_micronet();
        stats::Rng rng(31337);
        nn::init_network_kaiming(net, rng);
        data::SyntheticSpec spec;
        spec.noise_stddev = 0.8;
        auto train = data::make_synthetic(spec, 256, "train");
        nn::train_classifier(net, train.images, train.labels, 4, 32, {}, rng);
        auto eval = data::make_synthetic(spec, eval_images, "test");
        return Fixture{std::move(net), std::move(eval)};
    }
};

fault::FaultUniverse universe_for(nn::Network& net,
                                  const std::string& model) {
    if (model == "stuck-at") return fault::FaultUniverse::stuck_at(net);
    if (model == "flip") return fault::FaultUniverse::bit_flip(net);
    if (model == "mbu") return fault::FaultUniverse::multi_bit(net, 2);
    return fault::FaultUniverse::activation(net, Shape{3, 32, 32});
}

/// Decode a stretch of the universe starting at @p begin.
std::vector<fault::Fault> stretch(const fault::FaultUniverse& universe,
                                  std::uint64_t begin, std::uint64_t count) {
    std::vector<fault::Fault> faults;
    const std::uint64_t end = std::min(begin + count, universe.total());
    for (std::uint64_t i = begin; i < end; ++i)
        faults.push_back(universe.decode(i));
    return faults;
}

/// Group @p faults exactly the way the engine does: consecutive faults
/// sharing a layer and an ensemble family (fault::same_ensemble_family —
/// e.g. StuckAt0 and StuckAt1 interleave within one group), at most
/// @p width per group.
std::vector<std::vector<fault::Fault>> make_groups(
    const std::vector<fault::Fault>& faults, std::size_t width) {
    std::vector<std::vector<fault::Fault>> groups;
    for (std::size_t i = 0; i < faults.size();) {
        std::vector<fault::Fault> group;
        const fault::Fault& first = faults[i];
        while (i < faults.size() && group.size() < width &&
               faults[i].layer == first.layer &&
               fault::same_ensemble_family(faults[i].model, first.model))
            group.push_back(faults[i++]);
        groups.push_back(std::move(group));
    }
    return groups;
}

/// The identity check: the oracle classifies @p faults one at a time on a
/// private network clone; then one ClassificationCore on another clone
/// classifies them via evaluate_group, once per width, its grow-only
/// workspace carried from width to width. Outcomes and inference counts
/// must match exactly, and every width must retire the same lane-image
/// pairs early. Returns that retirement count.
std::uint64_t expect_group_identity(
    const nn::Network& net, const data::Dataset& eval,
    const std::vector<fault::Fault>& faults, const ExecutorConfig& config,
    std::span<const std::size_t> widths = kWidths) {
    nn::Network oracle_net = net.clone();
    ReferenceClassifier oracle(oracle_net, eval, config);
    std::vector<FaultOutcome> expected;
    for (const auto& f : faults) expected.push_back(oracle.evaluate(f));

    // Universe layout is weight-layer-indexed, not storage-pointer-bound:
    // the clone has identical shapes, so faults decode the same.
    nn::Network grouped_net = net.clone();
    ClassificationCore grouped(grouped_net, eval, config);
    std::uint64_t retired = 0;
    for (const std::size_t width : widths) {
        SCOPED_TRACE("width=" + std::to_string(width));
        const std::uint64_t before = grouped.inference_count();
        const std::uint64_t retired_before = grouped.retired_count();
        std::size_t next = 0;
        for (const auto& group : make_groups(faults, width)) {
            std::vector<FaultOutcome> out(group.size(),
                                          FaultOutcome::NonCritical);
            grouped.evaluate_group(group, out.data());
            for (std::size_t i = 0; i < group.size(); ++i, ++next)
                EXPECT_EQ(out[i], expected[next]) << group[i].to_string();
        }
        EXPECT_EQ(grouped.inference_count() - before,
                  oracle.inference_count());
        const std::uint64_t width_retired =
            grouped.retired_count() - retired_before;
        if (width == widths.front()) retired = width_retired;
        EXPECT_EQ(width_retired, retired);
        EXPECT_LE(width_retired, oracle.inference_count());
    }
    return retired;
}

/// expect_group_identity over a stretch of @p model's universe.
std::uint64_t expect_stretch_identity(const Fixture& fx,
                                      const std::string& model,
                                      const ExecutorConfig& config,
                                      std::uint64_t begin,
                                      std::uint64_t count) {
    SCOPED_TRACE(model);
    nn::Network net = fx.net.clone();
    return expect_group_identity(
        fx.net, fx.eval, stretch(universe_for(net, model), begin, count),
        config);
}

/// The same over the first @p count faults of the (layer 0, bit 30)
/// stratum: the exponent MSB, where most live faults turn Critical and
/// lanes leave the batch at different images.
void expect_exponent_identity(const Fixture& fx, const std::string& model,
                              const ExecutorConfig& config,
                              std::uint64_t count) {
    nn::Network net = fx.net.clone();
    expect_stretch_identity(fx, model, config,
                            universe_for(net, model).subpop_offset(0, 30),
                            count);
}

/// The same over the first @p count faults of the (@p layer, @p bit)
/// stratum; returns the lane-image pairs retired early.
std::uint64_t expect_stratum_identity(const Fixture& fx,
                                      const std::string& model,
                                      const ExecutorConfig& config, int layer,
                                      int bit, std::uint64_t count) {
    SCOPED_TRACE("layer " + std::to_string(layer) + ", bit " +
                 std::to_string(bit));
    nn::Network net = fx.net.clone();
    return expect_stretch_identity(
        fx, model, config, universe_for(net, model).subpop_offset(layer, bit),
        count);
}

TEST(EnsembleForward, MatchesPerFaultLoopAcrossFaultModels) {
    auto fx = Fixture::make();
    for (const char* model : {"stuck-at", "flip", "mbu", "activation"}) {
        // A stretch of layer 0 plus one crossing into later layers.
        expect_stretch_identity(fx, model, {}, 0, 96);
        expect_exponent_identity(fx, model, {}, 64);
    }
}

TEST(EnsembleForward, MatchesAcrossPolicies) {
    auto fx = Fixture::make();
    ExecutorConfig config;
    config.policy = ClassificationPolicy::GoldenMismatch;
    expect_stretch_identity(fx, "stuck-at", config, 0, 64);
    expect_exponent_identity(fx, "flip", config, 64);
    config.policy = ClassificationPolicy::AccuracyDrop;
    config.accuracy_drop_threshold = 0.1;
    expect_stretch_identity(fx, "stuck-at", config, 0, 64);
    expect_exponent_identity(fx, "flip", config, 64);
    config.policy = ClassificationPolicy::AnyMisprediction;
    expect_stretch_identity(fx, "flip", config, 0, 64);
    expect_exponent_identity(fx, "flip", config, 64);
}

TEST(EnsembleForward, MatchesAcrossWidths) {
    // Stuck-at stretches interleave polarities, so every width cuts groups
    // at a different mix of masked and live lanes.
    auto fx = Fixture::make();
    expect_stretch_identity(fx, "stuck-at", {}, 0, 48);
    expect_exponent_identity(fx, "stuck-at", {}, 48);
}

TEST(EnsembleForward, MatchesUnderMitigation) {
    auto fx = Fixture::make();
    ExecutorConfig config;
    config.mitigation.clips.push_back(fault::ClipRule{"*", -6.0f, 6.0f});
    expect_stretch_identity(fx, "stuck-at", config, 0, 64);
    expect_stretch_identity(fx, "activation", config, 0, 64);
    expect_exponent_identity(fx, "flip", config, 64);
    expect_exponent_identity(fx, "activation", config, 64);
    config.mitigation.tmr.push_back(fault::TmrRule{"conv1"});
    expect_stretch_identity(fx, "stuck-at", config, 0, 64);

    // A clip on conv1 alone: no later clamp re-bounds an exploded exponent,
    // so the recomputed row's own clamp decides the outcome.
    ExecutorConfig conv1_only;
    conv1_only.policy = ClassificationPolicy::GoldenMismatch;
    conv1_only.mitigation.clips.push_back(
        fault::ClipRule{"conv1", -6.0f, 6.0f});
    expect_exponent_identity(fx, "flip", conv1_only, 64);
}

TEST(EnsembleForward, MatchesOnDeepLayersAndMaskedMix) {
    // The last layers (conv3, fc) and stuck-at stretches mix Masked lanes
    // in.
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    const auto universe = fault::FaultUniverse::stuck_at(net);
    expect_stretch_identity(fx, "stuck-at", {}, universe.total() - 80, 80);
}

TEST(EnsembleForward, RejectsMixedGroups) {
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    ClassificationCore core(net, fx.eval);
    fault::Fault a, b;
    a.layer = 0;
    b.layer = 1;  // different layer, same model
    std::vector<fault::Fault> mixed = {a, b};
    FaultOutcome out[2];
    EXPECT_THROW(core.evaluate_group(mixed, out), std::invalid_argument);
    b.layer = 0;
    b.model = fault::FaultModel::ActivationFlip;  // weight + activation family
    mixed = {a, b};
    EXPECT_THROW(core.evaluate_group(mixed, out), std::invalid_argument);
}

TEST(EnsembleForward, MixedWeightModelsGroupTogether) {
    // Different weight-resident models sharing one layer are one family:
    // a group mixing stuck-at polarities, a bit flip, and a multi-bit upset
    // must classify identically to the oracle. This is the shape the engine
    // actually produces — stuck-at universes alternate polarity at
    // consecutive indices.
    auto fx = Fixture::make();
    std::vector<fault::Fault> faults;
    for (std::uint32_t i = 0; i < 8; ++i) {
        fault::Fault f;
        f.layer = 0;
        f.weight_index = i * 3;
        f.bit = 20 + i;
        f.model = (i % 4 == 0)   ? fault::FaultModel::StuckAt0
                  : (i % 4 == 1) ? fault::FaultModel::StuckAt1
                  : (i % 4 == 2) ? fault::FaultModel::BitFlip
                                 : fault::FaultModel::MultiFlip;
        if (f.model == fault::FaultModel::MultiFlip) f.k = 2;
        faults.push_back(f);
    }
    expect_group_identity(fx.net, fx.eval, faults, {});
}

TEST(EnsembleForward, EngineOutcomesIndependentOfEnsembleWidth) {
    // End to end: the campaign result (tallies, per-item outcomes) must not
    // depend on the width knob, exactly as it must not depend on workers.
    auto fx = Fixture::make();
    std::uint64_t retired = 0;
    auto run_with = [&](std::size_t width) {
        nn::Network net = fx.net.clone();
        auto universe = fault::FaultUniverse::stuck_at(net);
        ExecutorConfig config;
        config.ensemble_width = width;
        CampaignEngine engine(net, fx.eval, config);
        CampaignSpec spec;
        spec.approach = Approach::NetworkWise;
        spec.sample.error_margin = 0.05;
        spec.sample.confidence = 0.95;
        const auto plan = engine.plan(universe, spec);
        auto result = engine.run(universe, plan, stats::Rng(7).fork("campaign"));
        retired = engine.retired_count();
        return result;
    };
    const CampaignResult one = run_with(1);
    const std::uint64_t one_retired = retired;
    EXPECT_GT(one_retired, 0u);
    for (const std::size_t width : kWidths) {
        SCOPED_TRACE("width=" + std::to_string(width));
        const CampaignResult wide = run_with(width);
        EXPECT_EQ(retired, one_retired);
        ASSERT_EQ(one.subpops.size(), wide.subpops.size());
        EXPECT_EQ(one.total_injected(), wide.total_injected());
        EXPECT_EQ(one.total_critical(), wide.total_critical());
        for (std::size_t s = 0; s < one.subpops.size(); ++s) {
            EXPECT_EQ(one.subpops[s].critical, wide.subpops[s].critical);
            EXPECT_EQ(one.subpops[s].masked, wide.subpops[s].masked);
        }
    }
}

// -- deep topologies ---------------------------------------------------------

/// A Kaiming-initialized @p model with 2 evaluation images, relabeled so
/// image 1 is golden-correct and image 0 is not: AnyMisprediction must
/// then visit image 1 and stop before image 0, unlike index order.
Fixture deep_fixture(const std::string& model) {
    auto net = models::build_model(model);
    stats::Rng rng(2024);
    nn::init_network_kaiming(net, rng);
    auto eval = data::make_synthetic({}, 2, "test");
    const Tensor logits = net.forward(eval.images);
    eval.labels[0] = (nn::argmax_row(logits, 0) + 1) % 10;
    eval.labels[1] = nn::argmax_row(logits, 1);
    return Fixture{std::move(net), std::move(eval)};
}

/// 16 faults in weight layer @p layer, spread over output rows: stuck-at
/// both polarities and bit flips on exponent, sign and mantissa bits, so
/// Masked, Critical and NonCritical lanes share groups.
std::vector<fault::Fault> layer_faults(nn::Network& net, int layer) {
    using M = fault::FaultModel;
    constexpr std::pair<int, M> kFaults[] = {
        {30, M::StuckAt1}, {30, M::BitFlip},  {3, M::BitFlip},
        {30, M::StuckAt0}, {29, M::BitFlip},  {30, M::StuckAt1},
        {12, M::StuckAt1}, {31, M::BitFlip},  {30, M::BitFlip},
        {28, M::StuckAt0}, {27, M::StuckAt1}, {30, M::StuckAt1},
        {23, M::BitFlip},  {31, M::StuckAt1}, {30, M::BitFlip},
        {0, M::StuckAt0}};
    const auto weights = static_cast<std::uint64_t>(
        net.weight_layers().at(static_cast<std::size_t>(layer))
            .weight->numel());
    std::vector<fault::Fault> faults;
    std::uint64_t j = 0;
    for (const auto& [bit, model] : kFaults) {
        fault::Fault f;
        f.layer = layer;
        f.weight_index = (j++ * 7919 + 13) % weights;
        f.bit = bit;
        f.model = model;
        faults.push_back(f);
    }
    return faults;
}

/// Weight-layer index of graph node @p name.
int weight_layer(nn::Network& net, const std::string& name) {
    const auto layers = net.weight_layers();
    for (std::size_t l = 0; l < layers.size(); ++l)
        if (layers[l].name == name) return static_cast<int>(l);
    throw std::invalid_argument("no weight layer " + name);
}

/// The oracle identity over layer_faults of each of @p layers, under two
/// policies; returns the lane-image pairs retired early.
std::uint64_t expect_deep_identity(const std::string& model,
                                   const std::vector<std::string>& layers) {
    auto fx = deep_fixture(model);
    constexpr std::size_t kDeepWidths[] = {1, 8};
    std::uint64_t retired = 0;
    for (const auto policy : {ClassificationPolicy::GoldenMismatch,
                              ClassificationPolicy::AnyMisprediction}) {
        SCOPED_TRACE(to_string(policy));
        ExecutorConfig config;
        config.policy = policy;
        std::vector<fault::Fault> faults;
        for (const auto& name : layers) {
            const auto more =
                layer_faults(fx.net, weight_layer(fx.net, name));
            faults.insert(faults.end(), more.begin(), more.end());
        }
        retired += expect_group_identity(fx.net, fx.eval, faults, config,
                                         kDeepWidths);
    }
    return retired;
}

TEST(EnsembleForward, RetiresAtTheFrontier) {
    // MicroNet's fc is its last node, so an fc lane can only retire at the
    // frontier, when its recomputed logit is golden bit for bit: a
    // mantissa-LSB flip of an fc weight mostly rounds away in the sum.
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    const int fc = weight_layer(net, "fc");
    EXPECT_GT(expect_stratum_identity(fx, "flip", {}, fc, 0, 64), 0u);

    // Clamp, then compare: under a clip on fc narrower than the golden
    // logits, an exponent flip's exploded logit clamps to the bound golden
    // clamps to, and only a lane compared after its clamp retires.
    ExecutorConfig clipped;
    clipped.policy = ClassificationPolicy::GoldenMismatch;
    clipped.mitigation.clips.push_back(fault::ClipRule{"fc", -1e-3f, 1e-3f});
    EXPECT_GT(expect_stratum_identity(fx, "flip", clipped, fc, 30, 64), 0u);
}

TEST(EnsembleForward, RetiresAtCuts) {
    // An activation fault's flipped element always differs from golden,
    // so its lanes never retire at the frontier, only at the suffix's
    // cuts: a mantissa-LSB flip of a negative conv1 output is zeroed again
    // by relu1. Each lane is compared against its own image's golden
    // activations.
    auto fx = Fixture::make();
    EXPECT_GT(expect_stratum_identity(fx, "activation", {}, 0, 0, 64), 0u);
    // Weight faults rejoin at cuts too: a mantissa-LSB stuck-at of one of
    // conv1's first weights never leaves its row golden, but relu1 and the
    // pools absorb the change for some lanes.
    nn::Network net = fx.net.clone();
    EXPECT_GT(expect_stratum_identity(fx, "stuck-at", {},
                                      weight_layer(net, "conv1"), 0, 64),
              0u);
}

/// @p count faults spread evenly over the (@p layer, @p bit) stratum, so
/// their lanes land in many channels rather than the first one.
std::vector<fault::Fault> spread(const fault::FaultUniverse& universe,
                                 int layer, int bit, std::uint64_t count) {
    const std::uint64_t begin = universe.subpop_offset(layer, bit);
    const std::uint64_t n = universe.bit_population(layer);
    std::vector<fault::Fault> faults;
    for (std::uint64_t i = 0; i < std::min(count, n); ++i)
        faults.push_back(universe.decode(begin + i * n / std::min(count, n)));
    return faults;
}

/// Node id of graph node @p name.
int node_id(const nn::Network& net, const std::string& name) {
    for (int id = 0; id < net.node_count(); ++id)
        if (net.node_name(id) == name) return id;
    throw std::invalid_argument("no node " + name);
}

TEST(EnsembleForward, MatchesUnderAClipInsideARegion) {
    // relu2 is in conv2's channel region, where a lane's plane is clamped
    // as the hook clamps the full output, and in conv1's suffix, where the
    // hook itself runs. A clip narrower than most golden activations pulls
    // many lanes back to golden inside the region.
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    ExecutorConfig config;
    config.policy = ClassificationPolicy::GoldenMismatch;
    config.mitigation.clips.push_back(fault::ClipRule{"relu2", 0.0f, 0.5f});
    const int conv2 = weight_layer(net, "conv2");
    std::uint64_t retired = 0;
    for (const int bit : {30, 23, 3})
        retired += expect_stratum_identity(fx, "stuck-at", config, conv2, bit, 48);
    EXPECT_GT(retired, 0u);
    expect_stratum_identity(fx, "flip", config, weight_layer(net, "conv1"), 30,
                            48);
    const auto activations = universe_for(net, "activation");
    for (const char* node : {"conv2", "relu2", "relu1"})
        for (const int bit : {30, 22})
            expect_group_identity(
                fx.net, fx.eval,
                spread(activations, node_id(net, node), bit, 32), config);
}

TEST(EnsembleForward, ActivationLanesThroughChannelRegions) {
    // An activation fault's lane starts as one plane of its own image and
    // crosses the region of the node it strikes: every MicroNet node, the
    // logits included (no region, no resume).
    auto fx = Fixture::make();
    nn::Network net = fx.net.clone();
    const auto activations = universe_for(net, "activation");
    std::uint64_t retired = 0;
    for (int node = 0; node < net.node_count(); ++node) {
        SCOPED_TRACE(net.node_name(node));
        for (const int bit : {30, 22, 0})
            retired += expect_group_identity(
                fx.net, fx.eval, spread(activations, node, bit, 24), {});
    }
    EXPECT_GT(retired, 0u);

    // The deep nets: a residual Add reading a golden PadShortcut plane
    // (ResNet-20 stage2.block1.bn2), the last block's region running into
    // avgpool, MobileNetV2's expanded region through a depthwise conv, and
    // a project BN whose region is the block's Add.
    const std::pair<const char*, std::vector<std::string>> deep[] = {
        {"resnet20",
         {"conv1", "stage2.block1.bn2", "stage3.block3.conv2", "avgpool"}},
        {"mobilenetv2", {"block15.bn1", "block14.bn3", "conv2"}}};
    constexpr std::size_t kDeepWidths[] = {1, 8};
    for (const auto& [model, nodes] : deep) {
        SCOPED_TRACE(model);
        auto dfx = deep_fixture(model);
        const auto universe = universe_for(dfx.net, "activation");
        for (const auto& name : nodes) {
            SCOPED_TRACE(name);
            expect_group_identity(
                dfx.net, dfx.eval,
                spread(universe, node_id(dfx.net, name), 30, 16), {},
                kDeepWidths);
        }
    }
}

/// conv1 -> relu -> add(relu, conv1) -> gap -> fc: relu is in conv1's
/// channel region while conv1's own plane is still live (the Add reads
/// both), so a relu plane golden again must not retire the lane. Channel
/// 0's weights are negative and the images positive, so its golden conv1
/// plane is negative and its relu plane zero: a fault that keeps the conv1
/// plane negative leaves the relu plane golden while the Add still sees it.
Fixture skip_fixture() {
    nn::Network net;
    int id = net.add("conv1", std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1),
                     {nn::Network::kInputId});
    const int relu = net.add("relu", std::make_unique<nn::ReLU>(), {id});
    id = net.add("add", std::make_unique<nn::Add>(), {relu, id});
    id = net.add("gap", std::make_unique<nn::GlobalAvgPool>(), {id});
    net.add("fc", std::make_unique<nn::Linear>(4, 10), {id});
    stats::Rng rng(77);
    nn::init_network_kaiming(net, rng);
    Tensor& w = *net.weight_layers().front().weight;
    for (std::size_t i = 0; i < 27; ++i) w[i] = -std::fabs(w[i]) - 0.05f;
    auto eval = data::make_synthetic({}, 4, "test");
    for (std::size_t i = 0; i < eval.images.numel(); ++i)
        eval.images[i] = std::fabs(eval.images[i]) + 0.01f;
    return Fixture{std::move(net), std::move(eval)};
}

TEST(EnsembleForward, RegionComparesOnlyTheLastLiveDirtyPlane) {
    auto fx = skip_fixture();
    nn::Network net = fx.net.clone();
    EXPECT_EQ(net.channel_region(0).nodes, (std::vector<int>{1, 2, 3}));
    ExecutorConfig config;
    config.policy = ClassificationPolicy::GoldenMismatch;
    // Exponent flips of channel 0's weights: the conv1 plane explodes
    // negative, relu zeroes it as golden does, the Add carries it on.
    std::vector<fault::Fault> faults;
    const auto flips = fault::FaultUniverse::bit_flip(net);
    for (const int bit : {30, 29})
        for (std::uint64_t w = 0; w < 27; ++w)
            faults.push_back(flips.decode(flips.subpop_offset(0, bit) + w));
    std::size_t critical = 0;
    {
        nn::Network oracle_net = fx.net.clone();
        ReferenceClassifier oracle(oracle_net, fx.eval, config);
        for (const auto& f : faults)
            critical += oracle.evaluate(f) == FaultOutcome::Critical ? 1 : 0;
    }
    EXPECT_GT(critical, 0u);
    expect_group_identity(fx.net, fx.eval, faults, config);
    // Activation flips of conv1's channel-0 plane, the same story.
    const auto activations = universe_for(net, "activation");
    expect_group_identity(fx.net, fx.eval,
                          stretch(activations,
                                  activations.subpop_offset(0, 30), 64),
                          config);
}

TEST(EnsembleForward, WorkspaceIsGrowOnly) {
    // Groups of 8, 3, 5 and 8 lanes through one layer: the first allocates
    // everything (no lane leaves early under this policy, so every image's
    // row cache is built), and the narrower ones fit in what it left.
    Fixture fx = Fixture::make(4);
    ExecutorConfig config;
    config.policy = ClassificationPolicy::AccuracyDrop;
    config.accuracy_drop_threshold = 1.0;
    nn::Network net = fx.net.clone();
    ClassificationCore core(net, fx.eval, config);
    const auto faults = stretch(fault::FaultUniverse::bit_flip(net), 0, 24);
    std::size_t bytes = 0;
    std::size_t begin = 0;
    for (const std::size_t width : {8u, 3u, 5u, 8u}) {
        SCOPED_TRACE("width=" + std::to_string(width));
        std::vector<FaultOutcome> out(width);
        core.evaluate_group(std::span(faults).subspan(begin, width),
                            out.data());
        begin += width;
        if (bytes == 0) bytes = core.ensemble_bytes();
        EXPECT_GT(bytes, 0u);
        EXPECT_EQ(core.ensemble_bytes(), bytes);
    }
}

TEST(EnsembleForward, MatchesOnResNet20) {
    // The stem; the last stage-2 conv, whose block Add reads the stacked
    // block input and whose block output feeds stage 3's PadShortcut (a
    // late stage keeps the suffix short); the FC.
    EXPECT_GT(
        expect_deep_identity("resnet20", {"conv1", "stage2.block3.conv2", "fc"}),
        0u);
}

TEST(EnsembleForward, MatchesOnMobileNetV2) {
    // The stride-2 depthwise conv of block 13 (8x8 -> 4x4), whose suffix
    // runs the stride-1 depthwise convs of blocks 14-16; the expand
    // pointwise conv of the last residual block (its Add reads the stacked
    // block input); that block's depthwise conv; the FC.
    EXPECT_GT(expect_deep_identity("mobilenetv2",
                                   {"block13.depthwise", "block15.expand",
                                    "block15.depthwise", "fc"}),
              0u);
}

}  // namespace
}  // namespace statfi::core
