// Ablation: fault models beyond the paper's permanent weight stuck-ats.
// Compares, on the trained validation substrate:
//  * permanent stuck-at-0/1 on weights (the paper's model),
//  * transient single-bit flips on weights,
//  * transient single-bit flips on activations (one inference),
// each sampled layer/node-wise at the same statistical settings.

#include <iostream>

#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

using namespace statfi;

int main() {
    shard::Testbed testbed;
    auto& net = testbed.network();
    stats::SampleSpec spec;
    spec.error_margin = 0.02;  // single-core budget; same spec for all models

    std::cout << "Ablation: permanent weight faults vs transient weight and "
                 "activation faults (MicroNet substrate, e = 2%)\n\n";

    // --- permanent stuck-at on weights (the paper's model) -----------------
    auto sa_universe = fault::FaultUniverse::stuck_at(net);
    auto& executor = testbed.engine();
    const auto sa_result =
        executor.run(sa_universe, core::plan_layer_wise(sa_universe, spec),
                     testbed.rng("transient-sa"));

    // --- transient bit flip on weights --------------------------------------
    auto flip_universe = fault::FaultUniverse::bit_flip(net);
    const auto flip_result =
        executor.run(flip_universe, core::plan_layer_wise(flip_universe, spec),
                     testbed.rng("transient-flip"));

    report::Table weights_table({"Layer", "Stuck-at N", "Stuck-at crit [%]",
                                 "Bit-flip N", "Bit-flip crit [%]"});
    for (int l = 0; l < sa_universe.layer_count(); ++l) {
        const auto sa = core::estimate_subpop(sa_result.subpops[
            static_cast<std::size_t>(l)]);
        const auto fl = core::estimate_subpop(flip_result.subpops[
            static_cast<std::size_t>(l)]);
        weights_table.add_row(
            {sa_universe.layer(l).name,
             report::fmt_u64(sa_universe.layer_population(l)),
             report::fmt_percent(sa.rate, 2),
             report::fmt_u64(flip_universe.layer_population(l)),
             report::fmt_percent(fl.rate, 2)});
    }
    weights_table.print(std::cout);
    std::cout << "\n(a bit flip is a stuck-at that always lands on the "
                 "opposite value: with ~50% of stuck-ats masked, the flip "
                 "critical rate is ~2x the stuck-at rate)\n\n";

    // --- transient bit flip on activations ---------------------------------
    // Same engine, same plan/run path as the weight models: the activation
    // universe's "layers" are graph nodes.
    const auto act_universe =
        fault::FaultUniverse::activation(net, Shape{3, 32, 32});
    const auto act_result = executor.run(
        act_universe, core::plan_layer_wise(act_universe, spec),
        testbed.rng("transient-act"));

    report::Table act_table({"Node", "Elements/inference", "N", "FIs",
                             "Critical [%]"});
    for (std::size_t s = 0; s < act_result.subpops.size(); ++s) {
        const auto& sp = act_result.subpops[s];
        const int node = sp.plan.layer;
        act_table.add_row({act_universe.layer(node).name,
                           report::fmt_u64(act_universe.layer(node).weight_count),
                           report::fmt_u64(sp.plan.population),
                           report::fmt_u64(sp.injected),
                           report::fmt_percent(sp.critical_rate(), 2)});
    }
    act_table.print(std::cout);
    std::cout << "\n(activation faults are single-inference events: later "
                 "nodes have fewer elements but each corrupted value feeds "
                 "the decision more directly — the classifier head is the "
                 "most vulnerable per bit)\n";
    return 0;
}
