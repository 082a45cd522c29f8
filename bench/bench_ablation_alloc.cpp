// Ablation: how should a FIXED fault budget be allocated across layers?
// Compares proportional allocation (what a network-wise sample converges to)
// against Neyman allocation using the per-layer outcome variability, and
// against the paper's per-layer Eq. 1 (layer-wise) allocation — measured by
// the worst per-layer estimation error against ground truth.

#include <cmath>
#include <iostream>

#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"
#include "stats/stratified.hpp"

using namespace statfi;

namespace {

/// Replays a custom per-layer allocation and returns (avg, max) abs error.
std::pair<double, double> replay_allocation(
    shard::Testbed& testbed, const std::vector<std::uint64_t>& allocation,
    const std::string& label) {
    const auto& universe = testbed.universe();
    const auto& truth = testbed.ground_truth();
    core::CampaignPlan plan;
    plan.approach = core::Approach::LayerWise;
    for (int l = 0; l < universe.layer_count(); ++l) {
        core::SubpopPlan sp;
        sp.layer = l;
        sp.bit = -1;
        sp.population = universe.layer_population(l);
        sp.sample_size = std::min<std::uint64_t>(
            allocation[static_cast<std::size_t>(l)], sp.population);
        plan.subpops.push_back(sp);
    }
    const auto result = core::replay(universe, plan, truth, testbed.rng(label));
    double sum = 0.0, worst = 0.0;
    for (const auto& sp : result.subpops) {
        const double exact = truth.layer_critical_rate(universe, sp.plan.layer);
        const double err = std::fabs(sp.critical_rate() - exact);
        sum += err;
        worst = std::max(worst, err);
    }
    return {sum / static_cast<double>(result.subpops.size()), worst};
}

}  // namespace

int main() {
    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    const auto& truth = testbed.ground_truth();

    // Budget: what layer-wise Eq. 1 would spend in total.
    const auto lw_plan =
        core::plan_layer_wise(universe, stats::SampleSpec{});
    const std::uint64_t budget = lw_plan.total_sample_size();

    std::vector<std::uint64_t> sizes;
    std::vector<double> stddevs;
    for (int l = 0; l < universe.layer_count(); ++l) {
        sizes.push_back(universe.layer_population(l));
        const double p = truth.layer_critical_rate(universe, l);
        stddevs.push_back(std::sqrt(p * (1.0 - p)));
    }

    const auto proportional = stats::proportional_allocation(sizes, budget);
    const auto neyman = stats::neyman_allocation(sizes, stddevs, budget);
    std::vector<std::uint64_t> eq1;
    for (const auto& sp : lw_plan.subpops) eq1.push_back(sp.sample_size);

    std::cout << "Ablation: allocating a " << report::fmt_u64(budget)
              << "-fault budget across " << universe.layer_count()
              << " layers (20 replications each)\n\n";

    report::Table table({"Allocation", "Avg |error| [%]", "Max |error| [%]"});
    struct Scheme {
        const char* name;
        const std::vector<std::uint64_t>* alloc;
    };
    for (const Scheme scheme :
         {Scheme{"proportional (network-wise-like)", &proportional},
          Scheme{"Neyman (variance-optimal)", &neyman},
          Scheme{"per-layer Eq. 1 (paper layer-wise)", &eq1}}) {
        double avg = 0.0, worst = 0.0;
        constexpr int kReps = 20;
        for (int rep = 0; rep < kReps; ++rep) {
            const auto [a, w] = replay_allocation(
                testbed, *scheme.alloc,
                std::string(scheme.name) + "#" + std::to_string(rep));
            avg += a;
            worst = std::max(worst, w);
        }
        table.add_row({scheme.name, report::fmt_percent(avg / kReps, 4),
                       report::fmt_percent(worst, 4)});
    }
    table.print(std::cout);

    std::cout << "\n(Neyman needs the very variances the campaign is trying "
                 "to estimate — realizable only iteratively; Eq. 1 per layer "
                 "is the practical near-optimum the paper adopts.)\n";
    return 0;
}
