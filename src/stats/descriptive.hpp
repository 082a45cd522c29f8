#pragma once
// Descriptive statistics and outlier detection. The data-aware methodology
// (paper §III-B) min-max normalizes the per-bit criticality D_avg "without
// considering the outliers"; we implement Tukey IQR fences for that.

#include <cstddef>
#include <span>
#include <vector>

namespace statfi::stats {

double mean(std::span<const double> xs);
/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 elements.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Linear-interpolated quantile (type-7, the numpy/R default), q in [0,1].
double quantile(std::span<const double> xs, double q);
double median(std::span<const double> xs);

/// The verdict of a paired overhead gate (`bench_perf --gates`), read from
/// per-pair overheads o_i = on_i / off_i - 1 against a ceiling c by their
/// median m and quartiles q1, q3 (type 7, as quantile()):
///   Pass        q3 - q1 < c and m <= c;
///   Exceeded    q3 - q1 < c and m > c, or q1 > c;
///   Unresolved  otherwise: the pairs spread too widely to tell.
enum class GateVerdict { Pass, Exceeded, Unresolved };
const char* to_string(GateVerdict verdict);

struct OverheadReading {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    GateVerdict verdict = GateVerdict::Unresolved;
};
/// Throws std::domain_error on empty input, as quantile() does.
OverheadReading judge_overhead(std::span<const double> overheads,
                               double ceiling);

/// Tukey fences: [Q1 - k*IQR, Q3 + k*IQR]; the classic outlier rule uses
/// k = 1.5.
struct Fences {
    double lo = 0.0;
    double hi = 0.0;
};
Fences tukey_fences(std::span<const double> xs, double k = 1.5);

/// Indices of elements falling outside the Tukey fences.
std::vector<std::size_t> outlier_indices(std::span<const double> xs,
                                         double k = 1.5);

/// Min-max normalize xs into [a, b]. Elements outside the Tukey fences are
/// excluded from the min/max computation and the result is clamped to
/// [a, b] — so high outliers saturate at b and low outliers at a, exactly
/// the paper's "assign the outliers the highest criticality".
/// If all (non-outlier) values are equal, every element maps to b.
std::vector<double> minmax_normalize_robust(std::span<const double> xs, double a,
                                            double b, double tukey_k = 1.5);

/// Plain min-max normalization into [a, b] (no outlier handling).
std::vector<double> minmax_normalize(std::span<const double> xs, double a,
                                     double b);

}  // namespace statfi::stats
