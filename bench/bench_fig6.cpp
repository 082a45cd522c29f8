// Reproduces Fig. 6 of the paper: ten random samples (S0-S9) of each SFI
// approach on the FIRST convolutional layer, showing the estimated critical
// rate, its error margin, the number of FIs, and whether the exhaustive
// value falls inside the margin.
//
// Shape to reproduce: the network-wise margin is unusable; margins shrink
// through layer-wise -> data-unaware as n grows; the data-aware margin
// grows slightly vs data-unaware but stays below the 1% requirement while
// injecting an order of magnitude fewer faults.

#include <iostream>

#include "core/data_aware.hpp"
#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

using namespace statfi;

namespace {

/// Layer-0 estimate of one replayed sample of the given plan.
core::Estimate layer0_estimate(const shard::Testbed& testbed,
                               const fault::FaultUniverse& universe,
                               const core::CampaignPlan& plan,
                               const core::ExhaustiveOutcomes& truth,
                               const std::string& label, int sample) {
    const auto result = core::replay(
        universe, plan, truth,
        testbed.rng(label + "-S" + std::to_string(sample)));
    core::EstimatorConfig config;
    config.laplace_smoothing = true;  // honest bars for the tiny nw samples
    return core::estimate_layers(universe, result, config)[0].estimate;
}

}  // namespace

int main() {
    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    const auto& truth = testbed.ground_truth();
    const stats::SampleSpec spec;
    const auto criticality = core::analyze_network(testbed.network());

    const double exhaustive = truth.layer_critical_rate(universe, 0);
    std::cout << "Fig. 6: ten random samples per approach, layer 0 "
                 "(exhaustive critical rate "
              << report::fmt_percent(exhaustive, 3) << "%, N_l = "
              << report::fmt_u64(universe.layer_population(0)) << ")\n\n";

    struct ApproachRow {
        const char* name;
        core::CampaignPlan plan;
    };
    const std::vector<ApproachRow> approaches{
        {"network-wise", core::plan_network_wise(universe, spec)},
        {"layer-wise", core::plan_layer_wise(universe, spec)},
        {"data-unaware", core::plan_data_unaware(universe, spec)},
        {"data-aware", core::plan_data_aware(universe, spec, criticality)},
    };

    for (const auto& approach : approaches) {
        report::Table table({"Sample", "FIs in layer 0", "Critical [%]",
                             "Margin [%]", "Exhaustive inside?"});
        int contained = 0;
        for (int s = 0; s < 10; ++s) {
            const auto est = layer0_estimate(testbed, universe, approach.plan,
                                             truth, approach.name, s);
            const bool ok = est.contains(exhaustive);
            contained += ok;
            table.add_row({"S" + std::to_string(s),
                           report::fmt_u64(est.injected),
                           report::fmt_percent(est.rate, 3),
                           report::fmt_percent(est.margin, 3),
                           ok ? "yes" : "NO"});
        }
        std::cout << approach.name << " (planned n for layer 0: "
                  << report::fmt_u64(
                         approach.plan.layer_sample_size(universe, 0))
                  << ")\n";
        table.print(std::cout);
        std::cout << "contained: " << contained << "/10\n\n";
    }

    std::cout << "(paper: the error margin is not acceptable for the "
                 "network-wise SFI; it reduces for layer-wise and "
                 "data-unaware; it increases slightly for data-aware but "
                 "stays below the predefined 1%)\n";
    return 0;
}
