// Reproduces the paper's §V experimental setup at validation scale: the
// exhaustive stuck-at campaign that grounds every statistical comparison.
// The paper spent 37 GPU-days on ResNet-20 / 54 on MobileNetV2; this runs
// the equivalent census on the MicroNet substrate (DESIGN.md §2) in seconds
// and caches the per-fault outcome table for the Table III / Fig. 5-7
// benches.

#include <iostream>

#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

using namespace statfi;

int main() {
    shard::Testbed testbed;
    std::cout << "Exhaustive fault-injection census (validation substrate)\n\n";
    std::cout << "model: MicroNet (" << testbed.network().total_weight_count()
              << " injectable weights)\n"
              << "test accuracy: "
              << report::fmt_percent(testbed.test_accuracy(), 2)
              << "% (paper: ResNet-20 91.7%, MobileNetV2 92.01%)\n"
              << "evaluation images per fault: " << testbed.eval_set().size()
              << ", golden accuracy on them: "
              << report::fmt_percent(testbed.golden_accuracy(), 2) << "%\n"
              << "fault model: permanent stuck-at-0/1 on all weight bits "
                 "(single-fault assumption)\n"
              << "population N = " << report::fmt_u64(testbed.universe().total())
              << " faults\n\n";

    const auto& truth = testbed.ground_truth();
    const auto& universe = testbed.universe();

    std::uint64_t critical = 0, masked = 0;
    for (std::uint64_t i = 0; i < truth.size(); ++i) {
        critical += truth.at(i) == core::FaultOutcome::Critical;
        masked += truth.at(i) == core::FaultOutcome::Masked;
    }
    std::cout << "outcomes: " << report::fmt_u64(critical) << " critical ("
              << report::fmt_percent(truth.network_critical_rate(), 3)
              << "%), " << report::fmt_u64(masked)
              << " masked (exactly half of a stuck-at census)\n\n";

    report::Table per_layer({"Layer", "Name", "Faults", "Critical rate [%]"});
    for (int l = 0; l < universe.layer_count(); ++l)
        per_layer.add_row(
            {std::to_string(l), universe.layer(l).name,
             report::fmt_u64(universe.layer_population(l)),
             report::fmt_percent(truth.layer_critical_rate(universe, l), 3)});
    per_layer.print(std::cout);

    std::cout << "\nPer-bit critical rate (pooled over layers):\n";
    for (int bit = 31; bit >= 0; --bit) {
        double weighted = 0.0;
        std::uint64_t pop = 0;
        for (int l = 0; l < universe.layer_count(); ++l) {
            const auto sub = universe.bit_population(l);
            weighted += truth.subpop_critical_rate(universe, l, bit) *
                        static_cast<double>(sub);
            pop += sub;
        }
        const double rate = weighted / static_cast<double>(pop);
        std::cout << report::bar("bit " + std::to_string(bit), rate, 0.5, 40, 8)
                  << '\n';
    }
    std::cout << "\n(shape check: criticality concentrates at the exponent "
                 "MSB, bit 30 — the paper's Fig. 3/4 narrative)\n";
    return 0;
}
