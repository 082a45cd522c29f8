// Quickstart: the five-minute tour of StatFI.
//
//  1. build and train a small CNN (MicroNet) on a synthetic dataset;
//  2. enumerate its stuck-at fault universe;
//  3. derive the data-aware per-bit criticality p(i) from the golden weights
//     (no injections needed);
//  4. plan a data-aware statistical campaign (Eq. 3) at a 1% error margin,
//     99% confidence;
//  5. run it and report the estimated critical-fault rate with its margin.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "core/data_aware.hpp"
#include "core/engine.hpp"
#include "core/estimator.hpp"
#include "data/synthetic.hpp"
#include "models/micronet.hpp"
#include "nn/init.hpp"
#include "nn/trainer.hpp"
#include "report/table.hpp"

int main() {
    using namespace statfi;
    stats::Rng rng(42);

    // 1. Model + data + a short training run.
    auto net = models::make_micronet();
    nn::init_network_kaiming(net, rng);
    data::SyntheticSpec data_spec;
    const auto train = data::make_synthetic(data_spec, 1024, "train");
    const auto test = data::make_synthetic(data_spec, 128, "test");
    std::cout << "training MicroNet (" << net.total_weight_count()
              << " weights)...\n";
    nn::train_classifier(net, train.images, train.labels, /*epochs=*/8,
                         /*batch_size=*/32, nn::SgdConfig{}, rng);
    const double accuracy =
        nn::top1_accuracy(net.forward(test.images), test.labels);
    std::cout << "test accuracy: " << report::fmt_percent(accuracy, 1)
              << "%\n\n";

    // 2. The fault population: permanent stuck-at-0/1 on every weight bit.
    auto universe = fault::FaultUniverse::stuck_at(net);
    std::cout << "fault universe: N = " << report::fmt_u64(universe.total())
              << " stuck-at faults across " << universe.layer_count()
              << " weight layers\n";

    // 3. Data-aware criticality from the golden weights alone.
    const auto criticality = core::analyze_network(net);
    std::cout << "most critical bit: exponent MSB p(30) = "
              << criticality.p[30] << ", mantissa LSB p(0) = "
              << report::fmt_double(criticality.p[0], 6) << "\n\n";

    // 4. The campaign engine: spec -> plan -> run. The engine owns cloned
    // weights, the golden-activation cache, and (optionally) a worker pool;
    // plan() sizes every per-bit subpopulation via Eq. 3.
    const auto eval = test.take(8);
    core::CampaignEngine engine(net, eval);
    core::CampaignSpec campaign;
    campaign.approach = core::Approach::DataAware;  // e = 1%, 99% confidence
    const auto plan = engine.plan(universe, campaign);
    std::cout << "data-aware plan: " << report::fmt_u64(plan.total_sample_size())
              << " injections ("
              << report::fmt_percent(
                     static_cast<double>(plan.total_sample_size()) /
                         static_cast<double>(universe.total()),
                     2)
              << "% of exhaustive)\n";

    // 5. Run it (weights are corrupted and restored fault by fault).
    std::cout << "running " << report::fmt_u64(plan.total_sample_size())
              << " fault injections...\n";
    const auto result = engine.run(universe, plan, rng.fork("campaign"));

    const auto estimate = core::estimate_network(universe, result);
    std::cout << "\nestimated critical-fault rate: "
              << report::fmt_percent(estimate.rate, 3) << "% +- "
              << report::fmt_percent(estimate.margin, 3) << "% (99% conf.)\n"
              << "campaign wall time: " << report::fmt_double(result.wall_seconds, 1)
              << "s, " << engine.inference_count() << " faulty inferences ("
              << engine.retired_count() << " retired early as golden)\n";

    // Bonus: the per-layer view the paper says network-wise SFIs cannot give.
    report::Table table({"Layer", "Critical [%]", "Margin [%]", "FIs"});
    for (const auto& le : core::estimate_layers(universe, result)) {
        table.add_row({universe.layer(le.layer).name,
                       report::fmt_percent(le.estimate.rate, 3),
                       report::fmt_percent(le.estimate.margin, 3),
                       report::fmt_u64(le.estimate.injected)});
    }
    std::cout << '\n';
    table.print(std::cout);
    return 0;
}
