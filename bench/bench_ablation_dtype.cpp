// Ablation: data representations (the paper's stated future work, §VI).
// Computes the data-aware p(i) profile and campaign sizes when the weights
// are stored as FP32 / FP16 / bfloat16 / INT8, and measures the per-dtype
// critical rates on the validation substrate.
//
// Expected physics: the narrower the exponent field, the fewer catastrophic
// bit positions; INT8 has no exponent at all, so criticality spreads across
// the magnitude bits and the data-aware advantage shrinks.

#include <iostream>

#include "core/data_aware.hpp"
#include "core/estimator.hpp"
#include "report/table.hpp"
#include "shard/testbed.hpp"

using namespace statfi;
using fault::DataType;

int main() {
    shard::Testbed testbed;
    auto& net = testbed.network();
    const stats::SampleSpec spec;

    std::cout << "Ablation: data-aware SFI across weight data types "
                 "(MicroNet substrate)\n\n";

    report::Table table({"dtype", "bits", "population N", "data-unaware n",
                         "data-aware n", "reduction", "max-p bit",
                         "critical rate (sampled) [%]"});

    for (const DataType dtype : {DataType::Float32, DataType::Float16,
                                 DataType::BFloat16, DataType::Int8}) {
        auto universe = fault::FaultUniverse::stuck_at(net, dtype);
        core::DataAwareConfig config;
        config.dtype = dtype;
        if (dtype == DataType::Int8) {
            // Per-network symmetric scale, as the injector would use.
            float max_abs = 0.0f;
            for (auto& ref : net.weight_layers())
                max_abs = std::max(max_abs, ref.weight->max_abs());
            config.quant.scale = max_abs > 0 ? max_abs / 127.0f : 1.0f;
        }
        const auto crit = core::analyze_network(net, config);
        const auto unaware = core::plan_data_unaware(universe, spec);
        const auto aware = core::plan_data_aware(universe, spec, crit);

        int max_bit = 0;
        for (int i = 1; i < crit.bits(); ++i)
            if (crit.p[static_cast<std::size_t>(i)] >
                crit.p[static_cast<std::size_t>(max_bit)])
                max_bit = i;

        // Run a small real (non-replayed) data-aware campaign per dtype.
        core::ExecutorConfig exec_config;
        exec_config.dtype = dtype;
        core::CampaignEngine exec(net, testbed.eval_set(), exec_config);
        stats::SampleSpec coarse = spec;
        coarse.error_margin = 0.05;  // keep runtime in seconds
        const auto small_plan = core::plan_data_aware(universe, coarse, crit);
        const auto result = exec.run(universe, small_plan,
                                     testbed.rng(fault::to_string(dtype)));

        table.add_row(
            {fault::to_string(dtype), std::to_string(universe.bits()),
             report::fmt_u64(universe.total()),
             report::fmt_u64(unaware.total_sample_size()),
             report::fmt_u64(aware.total_sample_size()),
             report::fmt_double(
                 static_cast<double>(unaware.total_sample_size()) /
                     static_cast<double>(aware.total_sample_size()),
                 1) + "x",
             std::to_string(max_bit),
             report::fmt_percent(result.critical_rate(), 2)});
    }
    table.print(std::cout);

    std::cout << "\n(fp32/fp16/bf16: criticality pinned to the exponent MSB; "
                 "int8: spread over magnitude bits — the data-aware "
                 "reduction shrinks as the representation loses its "
                 "exponent.)\n";
    return 0;
}
