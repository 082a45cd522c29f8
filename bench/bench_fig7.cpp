// Reproduces Fig. 7 of the paper: a network-wise SFI cannot estimate
// per-layer critical rates, while the proposed data-aware SFI tracks the
// exhaustive per-layer criticality — shown on the validation substrate,
// plus the analytic per-layer fault allocations for MobileNetV2 at full
// scale (where the mismatch originates: a 16,639-fault network-wise sample
// leaves a few hundred faults per layer).

#include <iostream>

#include "core/data_aware.hpp"
#include "core/estimator.hpp"
#include "models/mobilenetv2.hpp"
#include "nn/init.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

using namespace statfi;

int main() {
    shard::Testbed testbed;
    const auto& universe = testbed.universe();
    const auto& truth = testbed.ground_truth();
    const stats::SampleSpec spec;
    const auto criticality = core::analyze_network(testbed.network());

    const auto nw_result =
        core::replay(universe, core::plan_network_wise(universe, spec), truth,
                     testbed.rng("fig7-network-wise"));
    const auto da_result = core::replay(
        universe, core::plan_data_aware(universe, spec, criticality), truth,
        testbed.rng("fig7-data-aware"));

    core::EstimatorConfig honest;
    honest.laplace_smoothing = true;
    const auto nw_layers = core::estimate_layers(universe, nw_result, honest);
    const auto da_layers = core::estimate_layers(universe, da_result, honest);

    std::cout << "Fig. 7: per-layer critical rate — network-wise vs "
                 "data-aware vs exhaustive (validation substrate)\n\n";
    report::Table table({"Layer", "Exhaustive [%]", "Network-wise [%]",
                         "NW margin [%]", "NW FIs", "Data-aware [%]",
                         "DA margin [%]", "DA FIs"});
    for (int l = 0; l < universe.layer_count(); ++l) {
        const double exact = truth.layer_critical_rate(universe, l);
        const auto& nw = nw_layers[static_cast<std::size_t>(l)].estimate;
        const auto& da = da_layers[static_cast<std::size_t>(l)].estimate;
        table.add_row({std::to_string(l), report::fmt_percent(exact, 3),
                       report::fmt_percent(nw.rate, 3),
                       report::fmt_percent(nw.margin, 3),
                       report::fmt_u64(nw.injected),
                       report::fmt_percent(da.rate, 3),
                       report::fmt_percent(da.margin, 3),
                       report::fmt_u64(da.injected)});
    }
    table.print(std::cout);

    const double nw_margin = core::average_layer_margin(nw_layers);
    std::cout << "\navg per-layer margin: network-wise "
              << report::fmt_percent(nw_margin, 2) << "%"
              << (nw_margin > 0.01 ? " (invalid, >1%)" : "")
              << " vs data-aware "
              << report::fmt_percent(core::average_layer_margin(da_layers), 2)
              << "%\n(MicroNet has only 4 layers, so a network-wise sample "
                 "still lands ~1k faults per layer; the paper-scale failure "
                 "is quantified below)\ninjected: network-wise "
              << report::fmt_u64(nw_result.total_injected())
              << " faults vs data-aware "
              << report::fmt_u64(da_result.total_injected()) << " (of "
              << report::fmt_u64(universe.total()) << ")\n\n";

    // Full-scale origin of the failure: the paper's MobileNetV2 numbers.
    auto mobilenet = models::make_mobilenetv2();
    stats::Rng rng(2023);
    nn::init_network_kaiming(mobilenet, rng);
    auto mb_universe = fault::FaultUniverse::stuck_at(mobilenet);
    const auto mb_nw = core::plan_network_wise(mb_universe, spec);
    std::cout << "Full-scale MobileNetV2: the network-wise sample ("
              << report::fmt_u64(mb_nw.total_sample_size())
              << " faults, paper: 16,639) leaves per layer:\n";
    std::uint64_t min_faults = ~0ull, max_faults = 0;
    for (int l = 0; l < mb_universe.layer_count(); ++l) {
        const auto share = mb_nw.layer_sample_size(mb_universe, l);
        min_faults = std::min(min_faults, share);
        max_faults = std::max(max_faults, share);
    }
    std::cout << "  between " << report::fmt_u64(min_faults) << " and "
              << report::fmt_u64(max_faults)
              << " faults per layer — orders of magnitude below the "
                 "per-layer Eq. 1 requirement, hence the paper's 3.28% "
                 "margin (> 1%: statistically invalid for per-layer "
                 "claims).\n";
    return 0;
}
