// Tests for descriptive statistics and the robust min-max normalization that
// implements the paper's Eq. 5 outlier handling.

#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace statfi::stats {
namespace {

TEST(Mean, KnownValues) {
    const std::vector<double> xs{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_THROW(mean({}), std::domain_error);
}

TEST(Variance, Unbiased) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    // Sample variance (n-1): 32/7.
    EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
}

TEST(MinMax, KnownValues) {
    const std::vector<double> xs{3, -1, 7, 0};
    EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
    EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Quantile, Type7Interpolation) {
    const std::vector<double> xs{1, 2, 3, 4};  // numpy percentile defaults
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
    EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Quantile, SingleElement) {
    EXPECT_DOUBLE_EQ(quantile(std::vector<double>{3.0}, 0.7), 3.0);
}

TEST(Quantile, RejectsBadInput) {
    EXPECT_THROW(quantile({}, 0.5), std::domain_error);
    EXPECT_THROW(quantile(std::vector<double>{1.0}, 1.5), std::domain_error);
}

// Paired overhead gate, ceiling c = 3%.
constexpr double kCeiling = 0.03;

TEST(JudgeOverhead, NarrowSpreadUnderCeilingPasses) {
    const std::vector<double> o{0.000, 0.004, 0.010, 0.012, 0.020};
    const auto r = judge_overhead(o, kCeiling);
    EXPECT_DOUBLE_EQ(r.median, 0.010);
    EXPECT_DOUBLE_EQ(r.q1, 0.004);
    EXPECT_DOUBLE_EQ(r.q3, 0.012);
    EXPECT_EQ(r.verdict, GateVerdict::Pass);
    EXPECT_STREQ(to_string(r.verdict), "pass");
}

TEST(JudgeOverhead, MedianExactlyAtCeilingPasses) {
    const std::vector<double> o{0.02, 0.03, 0.04};
    const auto r = judge_overhead(o, kCeiling);
    EXPECT_EQ(r.median, kCeiling);
    EXPECT_EQ(r.verdict, GateVerdict::Pass);
}

TEST(JudgeOverhead, NarrowSpreadOverCeilingExceeds) {
    const std::vector<double> o{0.05, 0.06, 0.07};
    const auto r = judge_overhead(o, kCeiling);
    EXPECT_LT(r.q3 - r.q1, kCeiling);
    EXPECT_EQ(r.verdict, GateVerdict::Exceeded);
    EXPECT_STREQ(to_string(r.verdict), "exceeded");
}

TEST(JudgeOverhead, WideSpreadWithQ1OverCeilingExceeds) {
    const std::vector<double> o{0.04, 0.05, 0.20, 0.30};
    const auto r = judge_overhead(o, kCeiling);
    EXPECT_GT(r.q3 - r.q1, kCeiling);
    EXPECT_GT(r.q1, kCeiling);
    EXPECT_EQ(r.verdict, GateVerdict::Exceeded);
}

TEST(JudgeOverhead, WideSpreadStraddlingCeilingIsUnresolved) {
    const std::vector<double> o{-0.10, -0.02, 0.02, 0.10};
    const auto r = judge_overhead(o, kCeiling);
    EXPECT_GT(r.q3 - r.q1, kCeiling);
    EXPECT_LT(r.q1, kCeiling);
    EXPECT_EQ(r.verdict, GateVerdict::Unresolved);
    EXPECT_STREQ(to_string(r.verdict), "unresolved");
}

TEST(JudgeOverhead, EmptyInputThrows) {
    EXPECT_THROW(judge_overhead({}, kCeiling), std::domain_error);
}

TEST(TukeyFences, SymmetricData) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
    const auto f = tukey_fences(xs);
    // Q1 = 2.75, Q3 = 6.25, IQR = 3.5.
    EXPECT_NEAR(f.lo, 2.75 - 5.25, 1e-12);
    EXPECT_NEAR(f.hi, 6.25 + 5.25, 1e-12);
}

TEST(OutlierIndices, FlagsExtremes) {
    std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 1000};
    const auto out = outlier_indices(xs);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 7u);
}

TEST(OutlierIndices, NoneOnUniformData) {
    std::vector<double> xs{5, 5, 5, 5, 5};
    EXPECT_TRUE(outlier_indices(xs).empty());
}

TEST(MinmaxNormalize, MapsToRange) {
    const std::vector<double> xs{0, 5, 10};
    const auto out = minmax_normalize(xs, 0.0, 0.5);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.25);
    EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(MinmaxNormalize, ConstantInputMapsToB) {
    const std::vector<double> xs{4, 4, 4};
    const auto out = minmax_normalize(xs, 0.0, 0.5);
    for (const double v : out) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(MinmaxNormalize, EmptyInput) {
    EXPECT_TRUE(minmax_normalize({}, 0.0, 1.0).empty());
}

TEST(MinmaxNormalizeRobust, OutliersClampToExtremes) {
    // One enormous value (the exponent-MSB Davg pattern): it must saturate
    // at b while the inliers use the full [a, b] range.
    std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 1e30};
    const auto out = minmax_normalize_robust(xs, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(out[7], 0.5);   // outlier -> highest criticality
    EXPECT_DOUBLE_EQ(out[0], 0.0);   // inlier min -> a
    EXPECT_DOUBLE_EQ(out[6], 0.5);   // inlier max -> b
    EXPECT_NEAR(out[3], 0.25, 1e-12);
}

TEST(MinmaxNormalizeRobust, LowOutliersClampToA) {
    std::vector<double> xs{-1e30, 1, 2, 3, 4, 5, 6, 7};
    const auto out = minmax_normalize_robust(xs, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(MinmaxNormalizeRobust, AllEqualFallsBackToB) {
    std::vector<double> xs{2, 2, 2, 2};
    const auto out = minmax_normalize_robust(xs, 0.0, 0.5);
    for (const double v : out) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(MinmaxNormalizeRobust, MatchesPlainWhenNoOutliers) {
    std::vector<double> xs{1, 2, 3, 4, 5};
    const auto robust = minmax_normalize_robust(xs, 0.0, 1.0);
    const auto plain = minmax_normalize(xs, 0.0, 1.0);
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_NEAR(robust[i], plain[i], 1e-12);
}

}  // namespace
}  // namespace statfi::stats
