// Tests for the data-aware bit-criticality analysis (paper §III-B, Eq. 4/5).

#include "core/data_aware.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "stats/rng.hpp"

namespace statfi::core {
namespace {

std::vector<float> kaiming_like_weights(std::size_t count, double sd = 0.05) {
    stats::Rng rng(4242);
    std::vector<float> ws(count);
    for (auto& w : ws) w = static_cast<float>(rng.normal(0.0, sd));
    return ws;
}

TEST(DataAware, RejectsEmptyInput) {
    EXPECT_THROW(analyze_weights({}), std::invalid_argument);
}

TEST(DataAware, ProfileHas32BitsForFp32) {
    const auto ws = kaiming_like_weights(500);
    const auto crit = analyze_weights(ws);
    EXPECT_EQ(crit.bits(), 32);
    EXPECT_EQ(crit.f0.size(), 32u);
    EXPECT_EQ(crit.davg.size(), 32u);
}

TEST(DataAware, FrequenciesSumToOne) {
    const auto ws = kaiming_like_weights(500);
    const auto crit = analyze_weights(ws);
    for (int i = 0; i < 32; ++i)
        EXPECT_NEAR(crit.f0[static_cast<std::size_t>(i)] +
                        crit.f1[static_cast<std::size_t>(i)],
                    1.0, 1e-12)
            << "bit " << i;
}

TEST(DataAware, Fig3BitFrequencyShape) {
    // Zero-mean weight distributions (Fig. 3): the sign bit is ~50/50, the
    // exponent MSB is always 0 (|w| << 2), and the next exponent bits are
    // almost always 1 (|w| well above 2^-64).
    const auto ws = kaiming_like_weights(5000);
    const auto crit = analyze_weights(ws);
    EXPECT_NEAR(crit.f1[31], 0.5, 0.05);
    EXPECT_EQ(crit.f1[30], 0.0);
    EXPECT_GT(crit.f1[29], 0.99);
    EXPECT_GT(crit.f1[28], 0.99);
}

TEST(DataAware, Eq4CombinesDirectionalDistances) {
    const auto ws = kaiming_like_weights(200);
    const auto crit = analyze_weights(ws);
    for (int i = 0; i < 32; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        EXPECT_NEAR(crit.davg[idx],
                    crit.d01[idx] * crit.f0[idx] + crit.d10[idx] * crit.f1[idx],
                    1e-9 * std::max(1.0, crit.davg[idx]))
            << "bit " << i;
    }
}

TEST(DataAware, ExponentMsbDominatesDavg) {
    const auto ws = kaiming_like_weights(500);
    const auto crit = analyze_weights(ws);
    for (int i = 0; i < 32; ++i)
        if (i != 30) EXPECT_GT(crit.davg[30], crit.davg[static_cast<std::size_t>(i)]);
}

TEST(DataAware, PWithinConfiguredRange) {
    const auto ws = kaiming_like_weights(500);
    for (const auto rule :
         {NormalizationRule::GlobalRange, NormalizationRule::InlierRange,
          NormalizationRule::LogInlierRange}) {
        DataAwareConfig config;
        config.rule = rule;
        const auto crit = analyze_weights(ws, config);
        for (int i = 0; i < 32; ++i) {
            EXPECT_GE(crit.p[static_cast<std::size_t>(i)], 0.0) << to_string(rule);
            EXPECT_LE(crit.p[static_cast<std::size_t>(i)], 0.5) << to_string(rule);
        }
    }
}

TEST(DataAware, GlobalRangeGivesFig4Shape) {
    // Paper Fig. 4: p ~ 0.5 at the exponent MSB, ~0 everywhere else.
    const auto ws = kaiming_like_weights(2000);
    const auto crit = analyze_weights(ws);  // default GlobalRange
    EXPECT_DOUBLE_EQ(crit.p[30], 0.5);
    for (int i = 0; i < 32; ++i)
        if (i != 30) EXPECT_LT(crit.p[static_cast<std::size_t>(i)], 0.01);
}

TEST(DataAware, MantissaCriticalityDecreasesTowardLsb) {
    const auto ws = kaiming_like_weights(2000);
    DataAwareConfig config;
    config.rule = NormalizationRule::LogInlierRange;
    const auto crit = analyze_weights(ws, config);
    // Log-scale normalization spreads the mantissa decay monotonically.
    for (int i = 1; i < 22; ++i)
        EXPECT_LE(crit.p[static_cast<std::size_t>(i - 1)],
                  crit.p[static_cast<std::size_t>(i)] + 1e-9)
            << "bit " << i;
}

TEST(DataAware, CustomRange) {
    const auto ws = kaiming_like_weights(300);
    DataAwareConfig config;
    config.p_min = 0.1;
    config.p_max = 0.4;
    const auto crit = analyze_weights(ws, config);
    for (int i = 0; i < 32; ++i) {
        EXPECT_GE(crit.p[static_cast<std::size_t>(i)], 0.1);
        EXPECT_LE(crit.p[static_cast<std::size_t>(i)], 0.4);
    }
    EXPECT_DOUBLE_EQ(crit.p[30], 0.4);
}

TEST(DataAware, Fp16ProfileHas16Bits) {
    const auto ws = kaiming_like_weights(300);
    DataAwareConfig config;
    config.dtype = fault::DataType::Float16;
    const auto crit = analyze_weights(ws, config);
    EXPECT_EQ(crit.bits(), 16);
    // fp16 exponent MSB is bit 14.
    EXPECT_DOUBLE_EQ(crit.p[14], 0.5);
}

TEST(DataAware, Int8ProfileHas8Bits) {
    const auto ws = kaiming_like_weights(300);
    DataAwareConfig config;
    config.dtype = fault::DataType::Int8;
    config.quant.scale = 0.05f / 127.0f;
    const auto crit = analyze_weights(ws, config);
    EXPECT_EQ(crit.bits(), 8);
    // For int8 the sign bit (bit 7) causes the largest swings.
    EXPECT_DOUBLE_EQ(crit.p[7], 0.5);
}

TEST(DataAware, AnalyzeNetworkPoolsAllWeights) {
    auto net = models::make_micronet();
    stats::Rng rng(77);
    nn::init_network_kaiming(net, rng);
    const auto crit = analyze_network(net);
    EXPECT_EQ(crit.bits(), 32);
    EXPECT_DOUBLE_EQ(crit.p[30], 0.5);
    // Compare against manual pooling.
    std::vector<float> all;
    for (auto& ref : net.weight_layers())
        all.insert(all.end(), ref.weight->data(),
                   ref.weight->data() + ref.weight->numel());
    const auto manual = analyze_weights(all);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(crit.p[static_cast<std::size_t>(i)],
                         manual.p[static_cast<std::size_t>(i)]);
}

TEST(DataAware, Int8AnalysisScalePrefersDeployedStoreScales) {
    auto net = models::make_micronet();
    stats::Rng rng(77);
    nn::init_network_kaiming(net, rng);
    // A deployed QuantizedStore's per-tensor scales are authoritative: the
    // network-wide scale is their maximum, whatever the weights hold.
    const std::vector<fault::QuantParams> store{{0.02f, 0}, {0.05f, 0},
                                                {0.03f, 0}};
    EXPECT_EQ(int8_analysis_scale(net, store), 0.05f);
    // Without a store the scale is max|w| / 127 over every weight tensor.
    float max_abs = 0.0f;
    for (auto& ref : net.weight_layers())
        max_abs = std::max(max_abs, ref.weight->max_abs());
    ASSERT_GT(max_abs, 0.0f);
    EXPECT_EQ(int8_analysis_scale(net, {}), max_abs / 127.0f);
    // A zero store scale falls back to scale 1.
    const std::vector<fault::QuantParams> zero{{0.0f, 0}};
    EXPECT_EQ(int8_analysis_scale(net, zero), 1.0f);
}

TEST(DataAware, SingleWeightDegenerateCase) {
    const std::vector<float> ws{0.25f};
    const auto crit = analyze_weights(ws);
    EXPECT_EQ(crit.bits(), 32);
    for (int i = 0; i < 32; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        EXPECT_TRUE(crit.f0[idx] == 0.0 || crit.f0[idx] == 1.0);
    }
}

}  // namespace
}  // namespace statfi::core
