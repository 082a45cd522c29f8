// Scenario: ISO 26262-style safety assessment of a CNN's weight memory.
//
// A safety engineer must show that soft errors in the network's weight
// storage keep the item under its PMHF budget. The flow:
//  1. run a data-aware statistical FI campaign (cheap, statistically valid);
//  2. translate the critical-fault rate into a FIT contribution using the
//     storage technology's raw soft-error rate;
//  3. compare against the ASIL budgets, per layer — identifying which
//     layers would need protection (ECC, TMR, duplication) first.
//
// Build & run:  ./build/examples/safety_assessment [fit_per_mbit = 700]

#include <cstdlib>
#include <iostream>

#include "core/data_aware.hpp"
#include "core/estimator.hpp"
#include "core/fit.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

int main(int argc, char** argv) {
    using namespace statfi;
    core::SoftErrorSpec ser;
    if (argc > 1) ser.fit_per_mbit = std::atof(argv[1]);
    if (ser.fit_per_mbit <= 0) {
        std::cerr << "usage: safety_assessment [fit_per_mbit]\n";
        return 1;
    }

    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    std::cout << "device under assessment: MicroNet, "
              << report::fmt_double(core::weight_storage_mbit(universe), 3)
              << " Mbit of weight storage, raw SER "
              << ser.fit_per_mbit << " FIT/Mbit\n\n";

    // 1. Data-aware campaign (live injections, not replay).
    const auto criticality = core::analyze_network(testbed.network());
    const auto plan = core::plan_data_aware(universe, stats::SampleSpec{},
                                            criticality);
    std::cout << "running data-aware campaign ("
              << report::fmt_u64(plan.total_sample_size()) << " of "
              << report::fmt_u64(universe.total()) << " faults)...\n";
    auto& engine = testbed.engine();
    const auto result =
        engine.run(universe, plan, testbed.rng("safety-assessment"));

    // 2. FIT translation.
    const auto network = core::estimate_network(universe, result);
    const auto fit = core::device_fit(universe, network, ser);
    std::cout << "\ncritical-fault rate: "
              << report::fmt_percent(network.rate, 3) << "% +- "
              << report::fmt_percent(network.margin, 3) << "%\n"
              << "weight-memory FIT contribution: "
              << report::fmt_double(fit.fit, 3) << " +- "
              << report::fmt_double(fit.margin, 3) << " FIT\n"
              << "strictest PMHF budget met: "
              << core::to_string(fit.strictest_met()) << "\n\n";

    // 3. Per-layer breakdown — where to spend protection.
    const auto layers = core::estimate_layers(universe, result);
    const auto layer_fits = core::layer_fit(universe, layers, ser);
    report::Table table({"Layer", "Storage [Mbit]", "Critical [%]",
                         "FIT", "Share [%]"});
    for (std::size_t l = 0; l < layers.size(); ++l) {
        table.add_row(
            {universe.layer(static_cast<int>(l)).name,
             report::fmt_double(layer_fits[l].storage_mbit, 4),
             report::fmt_percent(layers[l].estimate.rate, 3),
             report::fmt_double(layer_fits[l].fit, 4),
             report::fmt_percent(fit.fit > 0 ? layer_fits[l].fit / fit.fit : 0,
                                 1)});
    }
    table.print(std::cout);

    std::cout << "\nASIL budgets (ISO 26262-5): D < 10 FIT, B/C < 100 FIT.\n"
              << "Protecting the highest-share layers first (ECC on their "
                 "weight memory) buys the largest FIT reduction per "
                 "protected bit.\n";
    return 0;
}
