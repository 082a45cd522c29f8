#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace statfi::stats {

namespace {
std::vector<double> sorted_copy(std::span<const double> xs) {
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return s;
}
}  // namespace

double mean(std::span<const double> xs) {
    if (xs.empty()) throw std::domain_error("mean: empty input");
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 2) return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_of(std::span<const double> xs) {
    if (xs.empty()) throw std::domain_error("min_of: empty input");
    return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
    if (xs.empty()) throw std::domain_error("max_of: empty input");
    return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
    if (xs.empty()) throw std::domain_error("quantile: empty input");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::domain_error("quantile: q must be in [0,1]");
    const auto s = sorted_copy(xs);
    if (s.size() == 1) return s[0];
    const double h = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = std::min(lo + 1, s.size() - 1);
    const double frac = h - std::floor(h);
    return s[lo] + frac * (s[hi] - s[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

const char* to_string(GateVerdict verdict) {
    switch (verdict) {
        case GateVerdict::Pass: return "pass";
        case GateVerdict::Exceeded: return "exceeded";
        case GateVerdict::Unresolved: return "unresolved";
    }
    return "unresolved";
}

OverheadReading judge_overhead(std::span<const double> overheads,
                               double ceiling) {
    OverheadReading r;
    r.median = median(overheads);
    r.q1 = quantile(overheads, 0.25);
    r.q3 = quantile(overheads, 0.75);
    const bool resolved = r.q3 - r.q1 < ceiling;
    if (resolved && r.median <= ceiling)
        r.verdict = GateVerdict::Pass;
    else if (resolved || r.q1 > ceiling)
        r.verdict = GateVerdict::Exceeded;
    return r;
}

Fences tukey_fences(std::span<const double> xs, double k) {
    const double q1 = quantile(xs, 0.25);
    const double q3 = quantile(xs, 0.75);
    const double iqr = q3 - q1;
    return Fences{q1 - k * iqr, q3 + k * iqr};
}

std::vector<std::size_t> outlier_indices(std::span<const double> xs, double k) {
    const Fences f = tukey_fences(xs, k);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < xs.size(); ++i)
        if (xs[i] < f.lo || xs[i] > f.hi) out.push_back(i);
    return out;
}

std::vector<double> minmax_normalize(std::span<const double> xs, double a,
                                     double b) {
    if (xs.empty()) return {};
    const double lo = min_of(xs);
    const double hi = max_of(xs);
    std::vector<double> out(xs.size());
    if (hi == lo) {
        std::fill(out.begin(), out.end(), b);
        return out;
    }
    for (std::size_t i = 0; i < xs.size(); ++i)
        out[i] = a + (xs[i] - lo) * (b - a) / (hi - lo);
    return out;
}

std::vector<double> minmax_normalize_robust(std::span<const double> xs, double a,
                                            double b, double tukey_k) {
    if (xs.empty()) return {};
    const Fences f = tukey_fences(xs, tukey_k);
    // Min/max over inliers only.
    bool any_inlier = false;
    double lo = 0.0, hi = 0.0;
    for (double x : xs) {
        if (x < f.lo || x > f.hi) continue;
        if (!any_inlier) {
            lo = hi = x;
            any_inlier = true;
        } else {
            lo = std::min(lo, x);
            hi = std::max(hi, x);
        }
    }
    std::vector<double> out(xs.size());
    if (!any_inlier || hi == lo) {
        // Degenerate distribution: fall back to the safest (max-FI) choice.
        std::fill(out.begin(), out.end(), b);
        return out;
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double v = a + (xs[i] - lo) * (b - a) / (hi - lo);
        out[i] = std::clamp(v, std::min(a, b), std::max(a, b));
    }
    return out;
}

}  // namespace statfi::stats
