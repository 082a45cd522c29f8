// Reproduces Table III of the paper: the four statistical FI approaches
// compared on (n, injected %, average per-layer error margin), validated
// against the exhaustive census.
//
// Paper shape to confirm (both CNNs):
//   network-wise: tiny n, avg margin ABOVE the predefined 1% -> invalid;
//   layer-wise:   ~1.8% of faults, margin well below 1%;
//   data-unaware: most faults, smallest margin;
//   data-aware:   fewest faults of the valid approaches, margin ~layer-wise.
// Runs on the validation substrate (MicroNet + exhaustive ground truth),
// with every statistical sample replayed against the census.

#include <iostream>

#include "core/data_aware.hpp"
#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

using namespace statfi;

int main() {
    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    const auto& truth = testbed.ground_truth();
    const stats::SampleSpec spec;  // e=1%, 99% confidence

    const auto criticality = core::analyze_network(testbed.network());

    struct Row {
        const char* name;
        core::CampaignPlan plan;
    };
    std::vector<Row> rows;
    rows.push_back({"Exhaustive FI", core::plan_exhaustive(universe)});
    rows.push_back(
        {"Network-wise SFI [9]", core::plan_network_wise(universe, spec)});
    rows.push_back({"Layer-wise SFI", core::plan_layer_wise(universe, spec)});
    rows.push_back(
        {"Data-unaware SFI", core::plan_data_unaware(universe, spec)});
    rows.push_back(
        {"Data-aware SFI", core::plan_data_aware(universe, spec, criticality)});

    std::cout << "Table III: Comparing the FI methodologies "
                 "(validation substrate: MicroNet, N = "
              << report::fmt_u64(universe.total()) << ")\n\n";

    report::Table table({"Approach", "FIs (n)", "Injected Faults [%]",
                         "Avg Error Margin [%] (acceptable<1%)",
                         "Layers contained", "Network contained"});
    for (const auto& row : rows) {
        if (row.plan.approach == core::Approach::Exhaustive) {
            table.add_row({row.name, report::fmt_u64(universe.total()), "100",
                           "-", "-", "-"});
            continue;
        }
        const auto result =
            core::replay(universe, row.plan, truth, testbed.rng(row.name));
        const auto validation =
            core::validate_against_exhaustive(universe, result, truth);
        table.add_row(
            {row.name, report::fmt_u64(result.total_injected()),
             report::fmt_percent(
                 static_cast<double>(result.total_injected()) /
                     static_cast<double>(universe.total()),
                 2),
             report::fmt_percent(validation.avg_layer_margin, 3),
             std::to_string(validation.layers_contained) + "/" +
                 std::to_string(validation.layers_total),
             validation.network_contained ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout
        << "\nPaper (ResNet-20):    16,625 / 307,650 / 4,885,760 / 207,837 "
           "FIs; margins 1.57 / 0.19 / 0.06 / 0.08 %\n"
        << "Paper (MobileNetV2):  16,639 / 838,988 / 14,894,400 / 778,951 "
           "FIs; margins 3.28 / 0.01 / 0.004 / 0.008 %\n"
        << "Shape to check here:  network-wise needs the fewest FIs but its "
           "per-layer margins explode (cannot make per-layer claims);\n"
        << "                      data-aware is the cheapest approach whose "
           "margins stay acceptable.\n";

    // The per-layer margin of the network-wise readout, with honest
    // (Laplace-smoothed) margins for its tiny per-layer samples — the
    // quantified version of the paper's invalidity argument.
    const auto nw_result =
        core::replay(universe, rows[1].plan, truth, testbed.rng(rows[1].name));
    core::EstimatorConfig honest;
    honest.laplace_smoothing = true;
    const auto nw_layers = core::estimate_layers(universe, nw_result, honest);
    std::cout << "\nNetwork-wise per-layer margin (Laplace-smoothed): "
              << report::fmt_percent(core::average_layer_margin(nw_layers), 2)
              << "% average — far above the 1% requirement.\n";
    return 0;
}
