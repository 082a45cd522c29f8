// Scenario: choosing an SFI methodology for a verification sign-off.
//
// A verification team must pick a fault-injection strategy with a bounded
// budget and a 1% accuracy requirement. This example runs all four
// statistical approaches against the SAME exhaustive census (validation
// substrate, cached on disk) and prints the cost/accuracy trade-off the
// paper's Table III summarizes — then drills into the per-layer view to
// show why the cheapest plan (network-wise) is not statistically valid for
// per-layer claims.
//
// Build & run:  ./build/examples/compare_approaches

#include <iostream>

#include "core/data_aware.hpp"
#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

int main() {
    using namespace statfi;
    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    std::cout << "substrate: MicroNet, test accuracy "
              << report::fmt_percent(testbed.test_accuracy(), 1) << "%, N = "
              << report::fmt_u64(universe.total()) << " faults\n"
              << "building exhaustive ground truth (cached after the first "
                 "run)...\n\n";
    const auto& truth = testbed.ground_truth();

    const stats::SampleSpec spec;  // e = 1%, 99%
    const auto criticality = core::analyze_network(testbed.network());

    struct Candidate {
        const char* name;
        core::CampaignPlan plan;
    };
    const std::vector<Candidate> candidates{
        {"network-wise", core::plan_network_wise(universe, spec)},
        {"layer-wise", core::plan_layer_wise(universe, spec)},
        {"data-unaware", core::plan_data_unaware(universe, spec)},
        {"data-aware", core::plan_data_aware(universe, spec, criticality)},
    };

    report::Table table({"Approach", "FIs", "% of exhaustive",
                         "Network est. [%]", "Truth [%]", "Contained",
                         "Layers contained"});
    for (const auto& candidate : candidates) {
        const auto result = core::replay(universe, candidate.plan, truth,
                                         testbed.rng(candidate.name));
        const auto network = core::estimate_network(universe, result);
        const auto validation =
            core::validate_against_exhaustive(universe, result, truth);
        table.add_row(
            {candidate.name, report::fmt_u64(result.total_injected()),
             report::fmt_percent(static_cast<double>(result.total_injected()) /
                                     static_cast<double>(universe.total()),
                                 2),
             report::fmt_percent(network.rate, 3) + " +- " +
                 report::fmt_percent(network.margin, 3),
             report::fmt_percent(truth.network_critical_rate(), 3),
             network.contains(truth.network_critical_rate()) ? "yes" : "NO",
             std::to_string(validation.layers_contained) + "/" +
                 std::to_string(validation.layers_total)});
    }
    table.print(std::cout);

    std::cout << "\nDrill-down: per-layer estimates from the network-wise "
                 "sample (why it fails fine-grained claims)\n\n";
    const auto nw_result =
        core::replay(universe, candidates[0].plan, truth, testbed.rng("drill"));
    core::EstimatorConfig honest;
    honest.laplace_smoothing = true;
    report::Table drill({"Layer", "FIs landed", "Estimate [%]", "Margin [%]",
                         "Truth [%]"});
    for (const auto& le :
         core::estimate_layers(universe, nw_result, honest)) {
        drill.add_row(
            {universe.layer(le.layer).name,
             report::fmt_u64(le.estimate.injected),
             report::fmt_percent(le.estimate.rate, 2),
             report::fmt_percent(le.estimate.margin, 2),
             report::fmt_percent(truth.layer_critical_rate(universe, le.layer),
                                 2)});
    }
    drill.print(std::cout);

    std::cout << "\nverdict: data-aware gives layer-valid estimates at the "
                 "lowest cost — the paper's conclusion.\n";
    return 0;
}
