// Ablation: error-margin constructions. The paper uses the FPC-corrected
// normal (Wald) margin at the observed rate, which reports ZERO margin when
// a subpopulation observes no critical fault. This bench measures the
// empirical containment of the paper's margin vs Laplace-smoothed Wald vs
// Wilson vs Clopper-Pearson across repeated samples against ground truth.

#include <iostream>

#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"
#include "stats/intervals.hpp"

using namespace statfi;

int main() {
    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    const auto& truth = testbed.ground_truth();
    const stats::SampleSpec spec;
    const auto plan = core::plan_layer_wise(universe, spec);

    constexpr int kSamples = 40;
    constexpr double kConfidence = 0.99;

    int paper_ok = 0, laplace_ok = 0, wilson_ok = 0, cp_ok = 0, total = 0;
    double paper_width = 0.0, laplace_width = 0.0, wilson_width = 0.0,
           cp_width = 0.0;

    for (int s = 0; s < kSamples; ++s) {
        const auto result = core::replay(
            universe, plan, truth, testbed.rng("ci-" + std::to_string(s)));
        for (const auto& sp : result.subpops) {
            const double exact =
                truth.layer_critical_rate(universe, sp.plan.layer);
            ++total;

            core::EstimatorConfig paper_cfg;
            const auto paper = core::estimate_subpop(sp, paper_cfg);
            paper_ok += paper.contains(exact);
            paper_width += paper.interval.width();

            core::EstimatorConfig laplace_cfg;
            laplace_cfg.laplace_smoothing = true;
            const auto laplace = core::estimate_subpop(sp, laplace_cfg);
            laplace_ok += laplace.contains(exact);
            laplace_width += laplace.interval.width();

            const auto wilson =
                stats::wilson_interval(sp.critical, sp.injected, kConfidence);
            wilson_ok += wilson.contains(exact);
            wilson_width += wilson.width();

            const auto cp = stats::clopper_pearson_interval(
                sp.critical, sp.injected, kConfidence);
            cp_ok += cp.contains(exact);
            cp_width += cp.width();
        }
    }

    std::cout << "Ablation: interval constructions over " << kSamples
              << " layer-wise samples x " << universe.layer_count()
              << " layers (99% nominal confidence)\n\n";
    report::Table table({"Construction", "Containment [%]",
                         "Mean width [%]", "Notes"});
    auto pct = [&](int ok) {
        return report::fmt_percent(static_cast<double>(ok) / total, 1);
    };
    auto width = [&](double w) {
        return report::fmt_percent(w / total, 3);
    };
    table.add_row({"Wald+FPC at p_hat (paper)", pct(paper_ok),
                   width(paper_width), "zero width at k=0"});
    table.add_row({"Wald+FPC, Laplace-smoothed", pct(laplace_ok),
                   width(laplace_width), "honest at k=0"});
    table.add_row({"Wilson score", pct(wilson_ok), width(wilson_width),
                   "no FPC"});
    table.add_row({"Clopper-Pearson exact", pct(cp_ok), width(cp_width),
                   "conservative"});
    table.print(std::cout);

    std::cout << "\n(The paper's construction achieves near-nominal "
                 "containment here because layer-wise samples are large "
                 "enough to observe criticals; on sparse subpopulations its "
                 "zero-width degenerate intervals under-cover — the reason "
                 "the estimator offers smoothing and the Wilson/CP "
                 "alternatives.)\n";
    return 0;
}
