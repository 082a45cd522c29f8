// Engineering micro-benchmarks (google-benchmark): the costs that determine
// campaign throughput — forward passes, partial re-execution, injection,
// sampling, and planning. Not a paper table; quantifies DESIGN.md §5's
// claims (partial re-execution speedup, masked short-circuit).
//
// Besides the google-benchmark suite, `bench_perf --telemetry-json PATH`
// measures the telemetry subsystem's overhead: the engine census with
// telemetry off vs on (metrics + tracing), alternating reps, best-of wall
// per mode, outcomes checked bit-identical. Fails when the enabled run
// costs more than 3% — the "observability is near-free" claim in DESIGN.md
// §5.12 (BENCH_telemetry.json).
//
// `bench_perf --observatory-json PATH` extends that gate to the FULL
// observatory of DESIGN.md §5.13: metrics + tracing + JSONL event log on
// disk + the live campaign routes (/status folding that log on every
// poll), vs the bare engine. Same alternating-rep protocol, same 3%
// ceiling, same bit-identity requirement (BENCH_observatory.json).
//
// `bench_perf --kernels-json PATH` measures the kernel-dispatch layer and
// the fault-batched ensemble forward (DESIGN.md decision 15): the engine
// census in {generic, native} x {width 1, width 8} configurations, every
// outcome table checked bit-identical, with a >= 4x faults/s gate for the
// best configuration against the pre-kernel baseline (BENCH_kernels.json).
//
// `bench_perf --formats-json PATH` measures the number-format paths of
// DESIGN.md decision 17: one census per weight format (fp32, fp16, bf16,
// int8) on the shard fixture, each checked bit-identical across worker
// counts, with a gate requiring the fp16 and int8 paths to stay within 10%
// of the fp32 census throughput (BENCH_formats.json).
//
// `bench_perf --service-json PATH` measures the scheduler daemon of
// DESIGN.md decision 16: an in-process ServiceDaemon on an ephemeral
// loopback port runs a small batch of distinct campaigns across two
// workers (jobs/second through the full submit -> schedule -> shard ->
// merge -> publish path), then an identical resubmission measures the
// content-addressed cache-hit latency. The served result must match a
// direct engine run of the same recipe exactly (BENCH_service.json).
//
// `bench_perf --fleet-json PATH` measures the fleet observability plane of
// DESIGN.md decision 18: the same service batch with SchedulerOptions::fleet
// off vs on (per-shard trace sessions, the 200 ms metrics sampler whose
// metrics.tsf /fleet reads, merged per-job trace). Alternating reps,
// best-of wall per mode, the on-mode's artifacts validated (history
// samples, one trace_id across daemon + every shard), served outcomes
// identical, and the same 3% overhead ceiling (BENCH_fleet.json).

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/convergence.hpp"
#include "core/data_aware.hpp"
#include "core/engine.hpp"
#include "core/planner.hpp"
#include "kernels/registry.hpp"
#include "data/synthetic.hpp"
#include "fault/injector.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "report/json_parse.hpp"
#include "service/daemon.hpp"
#include "service/recipe_json.hpp"
#include "shard/fixture.hpp"
#include "stats/sampling.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/http.hpp"
#include "telemetry/session.hpp"

using namespace statfi;

namespace {

nn::Network prepared(const std::string& name) {
    auto net = models::build_model(name);
    stats::Rng rng(1);
    nn::init_network_kaiming(net, rng);
    return net;
}

void BM_MicroNetForward(benchmark::State& state) {
    auto net = prepared("micronet");
    Tensor x(Shape{1, 3, 32, 32}, 0.1f);
    for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_MicroNetForward);

void BM_ResNet20Forward(benchmark::State& state) {
    auto net = prepared("resnet20");
    Tensor x(Shape{1, 3, 32, 32}, 0.1f);
    for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_ResNet20Forward);

void BM_MobileNetV2Forward(benchmark::State& state) {
    auto net = prepared("mobilenetv2");
    Tensor x(Shape{1, 3, 32, 32}, 0.1f);
    for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_MobileNetV2Forward);

/// Partial re-execution from each weight layer of ResNet-20 vs full forward:
/// the speedup that makes exhaustive censuses tractable.
void BM_PartialReexecution(benchmark::State& state) {
    auto net = prepared("resnet20");
    Tensor x(Shape{1, 3, 32, 32}, 0.1f);
    std::vector<Tensor> golden, scratch;
    net.forward_all(x, golden);
    const auto refs = net.weight_layers();
    const int node = refs[static_cast<std::size_t>(state.range(0))].node_id;
    for (auto _ : state)
        benchmark::DoNotOptimize(net.forward_from(node, x, golden, scratch));
}
BENCHMARK(BM_PartialReexecution)->Arg(0)->Arg(7)->Arg(13)->Arg(19);

void BM_InjectorApplyRestore(benchmark::State& state) {
    auto net = prepared("resnet20");
    fault::WeightInjector injector(net);
    fault::Fault f;
    f.layer = 10;
    f.weight_index = 123;
    f.bit = 30;
    f.model = fault::FaultModel::StuckAt1;
    for (auto _ : state) {
        const auto record = injector.apply(f);
        injector.restore(f, record);
        benchmark::DoNotOptimize(record);
    }
}
BENCHMARK(BM_InjectorApplyRestore);

void BM_MaskedShortCircuit(benchmark::State& state) {
    auto net = prepared("micronet");
    data::SyntheticSpec spec;
    auto eval = data::make_synthetic(spec, 4, "test");
    core::CampaignEngine engine(net, eval);
    fault::Fault f;  // bit 30 stuck-at-0: masked on Kaiming weights
    f.layer = 2;
    f.weight_index = 5;
    f.bit = 30;
    f.model = fault::FaultModel::StuckAt0;
    core::FaultOutcome out;
    for (auto _ : state) {
        engine.core().evaluate_group({&f, 1}, &out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_MaskedShortCircuit);

void BM_FaultEvaluation(benchmark::State& state) {
    auto net = prepared("micronet");
    data::SyntheticSpec spec;
    auto eval = data::make_synthetic(spec, 4, "test");
    core::CampaignEngine engine(net, eval);
    fault::Fault f;  // bit flips are never masked: guaranteed live inference
    f.layer = 2;
    f.weight_index = 5;
    f.bit = 12;
    f.model = fault::FaultModel::BitFlip;
    core::FaultOutcome out;
    for (auto _ : state) {
        engine.core().evaluate_group({&f, 1}, &out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_FaultEvaluation);

void BM_SampleWithoutReplacement(benchmark::State& state) {
    stats::Rng rng(3);
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stats::sample_without_replacement(141'029'376ull, n, rng));
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SampleWithoutReplacement)->Arg(1000)->Arg(16639);

void BM_PlanDataAware(benchmark::State& state) {
    auto net = prepared("resnet20");
    auto universe = fault::FaultUniverse::stuck_at(net);
    const auto crit = core::analyze_network(net);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::plan_data_aware(universe, stats::SampleSpec{}, crit));
}
BENCHMARK(BM_PlanDataAware);

void BM_AnalyzeWeights(benchmark::State& state) {
    auto net = prepared("resnet20");
    for (auto _ : state)
        benchmark::DoNotOptimize(core::analyze_network(net));
}
BENCHMARK(BM_AnalyzeWeights);

// --- kernel dispatch + ensemble forward (--kernels-json) ------------------

/// Pre-kernel census throughput on the same fixture, measured at commit
/// 51af8be (CampaignExecutor serial census, best of two runs) on the
/// reference single-core builder: the baseline of the kernel speedup gate.
constexpr double kBaselineFaultsPerSecond = 14172.6;
constexpr const char* kBaselineCommit = "51af8be";

/// One engine census under a forced kernel backend and ensemble
/// width. A fresh engine per configuration: the golden cache must be built
/// by the same backend that classifies (one process never mixes backends).
struct KernelsConfigResult {
    std::string kernels;
    std::size_t width = 1;
    std::uint64_t faults = 0;  ///< classified prefix of the census
    double wall = 0.0;
    double fps = 0.0;
    core::ExhaustiveOutcomes outcomes;
};

KernelsConfigResult run_kernels_config(const std::string& backend,
                                       std::size_t width,
                                       std::uint64_t max_faults,
                                       std::size_t threads) {
    kernels::select(backend);
    auto net = models::build_model("micronet");
    stats::Rng rng(424242);
    nn::init_network_kaiming(net, rng);
    const auto eval = data::make_synthetic({}, 4, "test");
    const auto universe = fault::FaultUniverse::stuck_at(net);

    core::ExecutorConfig config;
    config.policy = core::ClassificationPolicy::GoldenMismatch;
    config.ensemble_width = width;
    core::CampaignEngine engine(net, eval, config, threads);

    // A capped smoke run classifies the census prefix [0, max_faults).
    core::DurabilityOptions durability;
    durability.range_end = std::min(max_faults, universe.total());

    KernelsConfigResult r;
    r.kernels = kernels::active().name;
    r.width = width;
    r.faults = durability.range_end == 0 ? universe.total()
                                         : durability.range_end;
    const auto start = std::chrono::steady_clock::now();
    r.outcomes = engine.run_exhaustive_durable(universe, durability).outcomes;
    r.wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    r.fps = r.wall > 0 ? static_cast<double>(r.faults) / r.wall : 0.0;
    std::cout << "  " << r.kernels << " width=" << width << ": " << r.fps
              << " faults/s (" << r.wall << " s)\n";
    return r;
}

/// The kernel-dispatch gate: every {backend} x {width} census bit-identical,
/// best configuration >= 4x the pre-kernel baseline (full census only —
/// capped smoke runs skip the throughput gate, not the identity check).
int run_kernels_report(const std::string& json_path, std::uint64_t max_faults,
                       std::size_t threads) {
    const bool have_native = kernels::native_kernels() != nullptr;
    std::cout << "kernel-dispatch census sweep (cpu: "
              << kernels::detect_cpu().describe() << ")\n";
    std::vector<KernelsConfigResult> runs;
    runs.push_back(run_kernels_config("generic", 1, max_faults, threads));
    runs.push_back(run_kernels_config("generic", 8, max_faults, threads));
    if (have_native) {
        runs.push_back(run_kernels_config("native", 1, max_faults, threads));
        runs.push_back(run_kernels_config("native", 8, max_faults, threads));
    }
    kernels::select("auto");

    const std::uint64_t n = runs.front().faults;
    bool identical = true;
    for (std::size_t c = 1; c < runs.size(); ++c)
        for (std::uint64_t i = 0; i < n; ++i)
            if (runs[c].outcomes.at(i) != runs[0].outcomes.at(i)) {
                std::cerr << "bench_perf: outcome mismatch at fault " << i
                          << " between " << runs[0].kernels << "/w"
                          << runs[0].width << " and " << runs[c].kernels
                          << "/w" << runs[c].width << "\n";
                identical = false;
                i = n;
            }

    const double crit_rate =
        static_cast<double>(runs[0].outcomes.critical_count(0, n)) /
        static_cast<double>(n);
    double best_fps = 0.0;
    std::string best_name;
    for (const auto& r : runs)
        if (r.fps > best_fps) {
            best_fps = r.fps;
            best_name = r.kernels + "/w" + std::to_string(r.width);
        }
    const double speedup = best_fps / kBaselineFaultsPerSecond;
    const bool full = max_faults == 0;
    const bool gate_ok = !full || !have_native || speedup >= 4.0;

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_perf: cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"fixture\": \"micronet kaiming(424242), 4 synthetic test "
           "images, GoldenMismatch, stuck-at universe\",\n"
        << "  \"cpu\": \"" << kernels::detect_cpu().describe() << "\",\n"
        << "  \"faults\": " << n << ",\n"
        << "  \"full_census\": " << (full ? "true" : "false") << ",\n"
        << "  \"workers\": " << (threads == 0 ? 0 : threads) << ",\n"
        << "  \"outcomes_identical\": " << (identical ? "true" : "false")
        << ",\n"
        << "  \"critical_rate\": " << crit_rate << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t c = 0; c < runs.size(); ++c)
        out << "    {\"kernels\": \"" << runs[c].kernels
            << "\", \"ensemble_width\": " << runs[c].width
            << ", \"wall_seconds\": " << runs[c].wall
            << ", \"faults_per_second\": " << runs[c].fps << "}"
            << (c + 1 < runs.size() ? "," : "") << "\n";
    out << "  ],\n"
        << "  \"best\": {\"config\": \"" << best_name
        << "\", \"faults_per_second\": " << best_fps
        << ", \"speedup_vs_baseline\": " << speedup << "},\n"
        << "  \"baseline\": {\n"
        << "    \"commit\": \"" << kBaselineCommit << "\",\n"
        << "    \"faults_per_second\": " << kBaselineFaultsPerSecond << "\n"
        << "  },\n"
        << "  \"gate\": {\"required_speedup\": 4.0, \"passed\": "
        << (gate_ok ? "true" : "false") << "}\n"
        << "}\n";
    std::cout << "best: " << best_name << " at " << best_fps
              << " faults/s = " << speedup << "x baseline ("
              << kBaselineFaultsPerSecond << " @ " << kBaselineCommit
              << ")\nreport written to " << json_path << "\n";
    if (!identical) {
        std::cerr << "bench_perf: KERNEL BACKENDS DISAGREE — bit-identity "
                     "contract violated\n";
        return 1;
    }
    if (!gate_ok) {
        std::cerr << "bench_perf: kernel speedup gate FAILED (" << speedup
                  << "x < 4x)\n";
        return 1;
    }
    return 0;
}

// --- per-format census throughput (--formats-json) ------------------------

/// One census per number format on the shard fixture (micronet recipe,
/// seed 424242, 4 images, GoldenMismatch): the universe shrinks with the
/// stored word width (32/16/8 bits per weight), so the comparison is on
/// faults/second, not wall time. Each format runs once at the requested
/// thread count and once at 2 workers; the durable-census contract says the
/// two outcome tables must match bit for bit.
struct FormatRunResult {
    std::string format;
    std::uint64_t universe = 0;
    std::uint64_t faults = 0;
    double wall = 0.0;
    double fps = 0.0;
    double crit_rate = 0.0;
    bool identical = false;  ///< 1-worker vs 2-worker outcome tables
};

FormatRunResult run_formats_config(fault::DataType dtype,
                                   std::uint64_t max_faults,
                                   std::size_t threads) {
    shard::CampaignRecipe recipe;
    recipe.model = "micronet";
    recipe.approach = core::Approach::Exhaustive;
    recipe.images = 4;
    recipe.policy = core::ClassificationPolicy::GoldenMismatch;
    recipe.seed = 424242;
    recipe.dtype = dtype;

    FormatRunResult r;
    r.format = fault::to_string(dtype);

    auto fx = shard::build_fixture(recipe);
    r.universe = fx.universe.total();
    r.faults = max_faults == 0 ? r.universe
                               : std::min(max_faults, r.universe);
    core::DurabilityOptions durability;
    durability.range_end = r.faults;

    core::CampaignEngine engine(fx.net, fx.eval, fx.config, threads);
    // Best of two timed runs: a single census is short enough (seconds)
    // that one scheduler hiccup can fake a >10% "regression" against the
    // gate. The outcomes of both passes are identical by the determinism
    // contract, so only the wall clock differs.
    core::ExhaustiveOutcomes outcomes;
    r.wall = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        const auto start = std::chrono::steady_clock::now();
        auto run = engine.run_exhaustive_durable(fx.universe, durability);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        if (pass == 0 || wall < r.wall) r.wall = wall;
        outcomes = std::move(run.outcomes);
    }
    r.fps = r.wall > 0 ? static_cast<double>(r.faults) / r.wall : 0.0;
    r.crit_rate =
        static_cast<double>(outcomes.critical_count(0, r.faults)) /
        static_cast<double>(r.faults);

    // Worker-count identity: a fresh fixture (deploy + golden pass from
    // scratch) at 2 workers must classify every fault the same way.
    auto fx2 = shard::build_fixture(recipe);
    core::CampaignEngine engine2(fx2.net, fx2.eval, fx2.config, 2);
    const auto run2 = engine2.run_exhaustive_durable(fx2.universe, durability);
    r.identical = true;
    for (std::uint64_t i = 0; r.identical && i < r.faults; ++i)
        r.identical = outcomes.at(i) == run2.outcomes.at(i);

    std::cout << "  " << r.format << ": " << r.fps << " faults/s ("
              << r.faults << "/" << r.universe << " faults, " << r.wall
              << " s, critical_rate " << r.crit_rate << ", workers-identical "
              << (r.identical ? "yes" : "NO") << ")\n";
    return r;
}

/// The format gate: every format's census bit-identical across worker
/// counts, and the reduced-precision paths (fp16, int8) within 10% of the
/// fp32 census throughput (full census only — capped smoke runs skip the
/// throughput gate, not the identity checks).
int run_formats_report(const std::string& json_path, std::uint64_t max_faults,
                       std::size_t threads) {
    constexpr double kMaxRegressionPct = 10.0;
    std::cout << "per-format census sweep (micronet seed 424242, 4 images, "
                 "GoldenMismatch)\n";
    const fault::DataType dtypes[] = {
        fault::DataType::Float32, fault::DataType::Float16,
        fault::DataType::BFloat16, fault::DataType::Int8};
    std::vector<FormatRunResult> runs;
    for (const auto dtype : dtypes)
        runs.push_back(run_formats_config(dtype, max_faults, threads));

    bool identical = true;
    for (const auto& r : runs) identical = identical && r.identical;

    const double fp32_fps = runs.front().fps;
    const bool full = max_faults == 0;
    bool gate_ok = true;
    for (const auto& r : runs) {
        if (r.format != "fp16" && r.format != "int8") continue;
        if (full && fp32_fps > 0 &&
            r.fps < fp32_fps * (1.0 - kMaxRegressionPct / 100.0)) {
            std::cerr << "bench_perf: " << r.format << " census at " << r.fps
                      << " faults/s regresses fp32 (" << fp32_fps
                      << ") by more than " << kMaxRegressionPct << "%\n";
            gate_ok = false;
        }
    }

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_perf: cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"fixture\": \"micronet recipe seed 424242, 4 synthetic test "
           "images, GoldenMismatch, stuck-at universe per format\",\n"
        << "  \"full_census\": " << (full ? "true" : "false") << ",\n"
        << "  \"workers\": " << (threads == 0 ? 0 : threads) << ",\n"
        << "  \"workers_identical\": " << (identical ? "true" : "false")
        << ",\n"
        << "  \"formats\": [\n";
    for (std::size_t c = 0; c < runs.size(); ++c) {
        const auto& r = runs[c];
        out << "    {\"format\": \"" << r.format << "\", \"universe\": "
            << r.universe << ", \"faults\": " << r.faults
            << ", \"wall_seconds\": " << r.wall
            << ", \"faults_per_second\": " << r.fps
            << ", \"critical_rate\": " << r.crit_rate
            << ", \"vs_fp32\": " << (fp32_fps > 0 ? r.fps / fp32_fps : 0.0)
            << ", \"workers_identical\": "
            << (r.identical ? "true" : "false") << "}"
            << (c + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"gate\": {\"max_regression_pct\": " << kMaxRegressionPct
        << ", \"gated_formats\": [\"fp16\", \"int8\"], \"passed\": "
        << ((gate_ok && identical) ? "true" : "false") << "}\n"
        << "}\n";
    std::cout << "report written to " << json_path << "\n";
    if (!identical) {
        std::cerr << "bench_perf: FORMAT WORKER COUNTS DISAGREE — "
                     "bit-identity contract violated\n";
        return 1;
    }
    if (!gate_ok) {
        std::cerr << "bench_perf: format throughput gate FAILED\n";
        return 1;
    }
    return 0;
}

// --- telemetry overhead (--telemetry-json) --------------------------------

/// The gate DESIGN.md §5.12 promises: a fully instrumented census (metrics
/// + tracing) may cost at most this much over the null-sink run.
constexpr double kMaxTelemetryOverheadPct = 3.0;
constexpr int kTelemetryReps = 3;

/// Telemetry off vs on over the kernel-gate census fixture, reps alternating so
/// thermal/frequency drift hits both modes equally; best-of wall per mode.
/// Every run's outcome table must match the first run's bit for bit
/// (telemetry only observes), and the enabled runs' statfi_faults_total
/// counter must equal the census size.
int run_telemetry_report(const std::string& json_path,
                         std::uint64_t max_faults) {
    const auto make_net = [] {
        auto net = models::build_model("micronet");
        stats::Rng rng(424242);
        nn::init_network_kaiming(net, rng);
        return net;
    };
    const auto eval = data::make_synthetic({}, 4, "test");
    core::ExecutorConfig config;
    config.policy = core::ClassificationPolicy::GoldenMismatch;

    auto reference_net = make_net();
    const auto universe = fault::FaultUniverse::stuck_at(reference_net);
    const std::uint64_t total = universe.total();
    const std::uint64_t faults =
        max_faults == 0 ? total : std::min(max_faults, total);
    core::DurabilityOptions durability;
    durability.range_end = faults;

    core::ExhaustiveOutcomes reference;
    double best_wall[2] = {1e300, 1e300};  // [disabled, enabled]
    bool identical = true;
    std::uint64_t faults_counter = 0;
    for (int rep = 0; rep < kTelemetryReps; ++rep) {
        for (int mode = 0; mode < 2; ++mode) {
            auto net = make_net();
            std::unique_ptr<telemetry::Session> session;
            if (mode == 1) session = std::make_unique<telemetry::Session>();
            core::CampaignEngine engine(net, eval, config, 1, session.get());
            const auto start = std::chrono::steady_clock::now();
            const auto run = engine.run_exhaustive_durable(universe, durability);
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
            best_wall[mode] = std::min(best_wall[mode], wall);
            if (rep == 0 && mode == 0) {
                reference = run.outcomes;
            } else {
                for (std::uint64_t i = 0; identical && i < faults; ++i)
                    identical = run.outcomes.at(i) == reference.at(i);
            }
            if (session) {
                const auto snap = session->metrics().snapshot();
                if (const auto* m = snap.find("statfi_faults_total"))
                    faults_counter = m->counter;
            }
        }
    }

    const double overhead_pct =
        (best_wall[1] - best_wall[0]) / best_wall[0] * 100.0;
    const bool counter_matches = faults_counter == faults;
    const bool pass =
        identical && counter_matches && overhead_pct <= kMaxTelemetryOverheadPct;

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_perf: cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"fixture\": \"micronet kaiming(424242), 4 synthetic test "
           "images, GoldenMismatch, stuck-at universe\",\n"
        << "  \"universe\": " << total << ",\n"
        << "  \"faults\": " << faults << ",\n"
        << "  \"reps_per_mode\": " << kTelemetryReps << ",\n"
        << "  \"disabled_wall_seconds\": " << best_wall[0] << ",\n"
        << "  \"enabled_wall_seconds\": " << best_wall[1] << ",\n"
        << "  \"disabled_faults_per_second\": "
        << static_cast<double>(faults) / best_wall[0] << ",\n"
        << "  \"enabled_faults_per_second\": "
        << static_cast<double>(faults) / best_wall[1] << ",\n"
        << "  \"overhead_pct\": " << overhead_pct << ",\n"
        << "  \"max_overhead_pct\": " << kMaxTelemetryOverheadPct << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"faults_counter_matches\": "
        << (counter_matches ? "true" : "false") << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "telemetry overhead: " << overhead_pct << "% (off "
              << best_wall[0] << " s, on " << best_wall[1]
              << " s, gate " << kMaxTelemetryOverheadPct
              << "%), bit_identical " << (identical ? "yes" : "NO")
              << ", faults counter " << faults_counter << "/" << faults
              << "\nreport written to " << json_path << "\n";
    if (!pass)
        std::cerr << "bench_perf: telemetry gate FAILED (overhead "
                  << overhead_pct << "% > " << kMaxTelemetryOverheadPct
                  << "%, or divergence above)\n";
    return pass ? 0 : 1;
}

// --- full observatory overhead (--observatory-json) -----------------------

std::string service_http(std::uint16_t port, const std::string& request);

/// The kernel-gate census bare vs under the full observatory: metrics,
/// tracing, the JSONL event log streamed to disk, and the campaign routes
/// (add_campaign_routes) on an ephemeral loopback port that a client
/// thread actually polls (/status, which folds the log, and /metrics every
/// ~50 ms) — an idle server would measure nothing and once reported
/// http_requests_served: 0. Alternating reps, best-of wall per mode; the
/// instrumented run must stay within kMaxTelemetryOverheadPct of the bare
/// run and its outcome table must match bit for bit.
int run_observatory_report(const std::string& json_path,
                           std::uint64_t max_faults) {
    const auto make_net = [] {
        auto net = models::build_model("micronet");
        stats::Rng rng(424242);
        nn::init_network_kaiming(net, rng);
        return net;
    };
    const auto eval = data::make_synthetic({}, 4, "test");
    core::ExecutorConfig config;
    config.policy = core::ClassificationPolicy::GoldenMismatch;

    auto reference_net = make_net();
    const auto universe = fault::FaultUniverse::stuck_at(reference_net);
    const std::uint64_t total = universe.total();
    const std::uint64_t faults =
        max_faults == 0 ? total : std::min(max_faults, total);
    core::DurabilityOptions durability;
    durability.range_end = faults;

    const auto log_path = std::filesystem::temp_directory_path() /
                          "statfi_observatory_bench.jsonl";

    core::CampaignHeaderInfo header;
    header.command = "bench";
    header.model = "micronet";
    header.approach = "exhaustive";
    header.dtype = "fp32";
    header.policy = "golden-mismatch";
    header.seed = 424242;
    header.images = 4;

    core::ExhaustiveOutcomes reference;
    double best_wall[2] = {1e300, 1e300};  // [bare, observatory]
    bool identical = true;
    std::uint64_t events_logged = 0;
    std::uint64_t requests_served = 0;
    for (int rep = 0; rep < kTelemetryReps; ++rep) {
        for (int mode = 0; mode < 2; ++mode) {
            auto net = make_net();
            std::unique_ptr<telemetry::Session> session;
            std::unique_ptr<telemetry::HttpServer> server;
            std::atomic<bool> poll_stop{false};
            std::thread poller;
            if (mode == 1) {
                session = std::make_unique<telemetry::Session>();
                session->open_event_log(log_path.string());
                core::emit_campaign_header(*session->events(), header);
                server = std::make_unique<telemetry::HttpServer>(
                    telemetry::HttpServer::Options{});
                telemetry::add_campaign_routes(*server, *session);
                server->start();
                // A live observer: the overhead being gated includes
                // answering real requests while the census runs.
                const std::uint16_t port = server->port();
                poller = std::thread([port, &poll_stop] {
                    while (!poll_stop.load(std::memory_order_relaxed)) {
                        service_http(port, "GET /status HTTP/1.1\r\n"
                                           "Connection: close\r\n\r\n");
                        service_http(port, "GET /metrics HTTP/1.1\r\n"
                                           "Connection: close\r\n\r\n");
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                    }
                });
            }
            core::CampaignEngine engine(net, eval, config, 1, session.get());
            const auto start = std::chrono::steady_clock::now();
            const auto run = engine.run_exhaustive_durable(universe, durability);
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
            if (poller.joinable()) {
                poll_stop.store(true, std::memory_order_relaxed);
                poller.join();
            }
            best_wall[mode] = std::min(best_wall[mode], wall);
            if (rep == 0 && mode == 0) {
                reference = run.outcomes;
            } else {
                for (std::uint64_t i = 0; identical && i < faults; ++i)
                    identical = run.outcomes.at(i) == reference.at(i);
            }
            if (session) {
                core::emit_campaign_end(
                    *session->events(), run.complete, faults,
                    run.outcomes.critical_count(0, faults), wall);
                events_logged = session->events()->events_written();
                requests_served = server->requests_served();
            }
        }
    }
    std::filesystem::remove(log_path);

    const double overhead_pct =
        (best_wall[1] - best_wall[0]) / best_wall[0] * 100.0;
    const bool logged = events_logged >= 2;  // header + campaign_end minimum
    // The poller issues /status + /metrics pairs for the whole run; zero
    // served requests would mean the "live observer" leg measured nothing.
    const bool served = requests_served >= 2;
    const bool pass = identical && logged && served &&
                      overhead_pct <= kMaxTelemetryOverheadPct;

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_perf: cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"fixture\": \"micronet kaiming(424242), 4 synthetic test "
           "images, GoldenMismatch, stuck-at universe\",\n"
        << "  \"instrumentation\": \"metrics + tracing + JSONL event log + "
           "campaign routes, /status folding the log (ephemeral loopback "
           "port)\",\n"
        << "  \"universe\": " << total << ",\n"
        << "  \"faults\": " << faults << ",\n"
        << "  \"reps_per_mode\": " << kTelemetryReps << ",\n"
        << "  \"bare_wall_seconds\": " << best_wall[0] << ",\n"
        << "  \"observatory_wall_seconds\": " << best_wall[1] << ",\n"
        << "  \"bare_faults_per_second\": "
        << static_cast<double>(faults) / best_wall[0] << ",\n"
        << "  \"observatory_faults_per_second\": "
        << static_cast<double>(faults) / best_wall[1] << ",\n"
        << "  \"overhead_pct\": " << overhead_pct << ",\n"
        << "  \"max_overhead_pct\": " << kMaxTelemetryOverheadPct << ",\n"
        << "  \"events_logged\": " << events_logged << ",\n"
        << "  \"http_requests_served\": " << requests_served << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "observatory overhead: " << overhead_pct << "% (bare "
              << best_wall[0] << " s, instrumented " << best_wall[1]
              << " s, gate " << kMaxTelemetryOverheadPct
              << "%), bit_identical " << (identical ? "yes" : "NO") << ", "
              << events_logged << " events logged, " << requests_served
              << " HTTP requests served\nreport written to " << json_path
              << "\n";
    if (!pass)
        std::cerr << "bench_perf: observatory gate FAILED (overhead "
                  << overhead_pct << "% > " << kMaxTelemetryOverheadPct
                  << "%, zero requests served, or divergence above)\n";
    return pass ? 0 : 1;
}

// --- service scheduling throughput (--service-json) -----------------------

/// Minimal loopback HTTP client for driving the in-process daemon.
std::string service_http(std::uint16_t port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

report::JsonValue service_get_json(std::uint16_t port,
                                   const std::string& path) {
    const std::string response = service_http(
        port, "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n");
    const auto split = response.find("\r\n\r\n");
    if (split == std::string::npos) return {};
    return report::parse_json(response.substr(split + 4));
}

report::JsonValue service_post_json(std::uint16_t port,
                                    const std::string& path,
                                    const std::string& body) {
    const std::string response = service_http(
        port, "POST " + path + " HTTP/1.1\r\nContent-Length: " +
                  std::to_string(body.size()) +
                  "\r\nConnection: close\r\n\r\n" + body);
    const auto split = response.find("\r\n\r\n");
    if (split == std::string::npos) return {};
    return report::parse_json(response.substr(split + 4));
}

/// Poll a job to its terminal state; returns the final status document.
report::JsonValue service_await(std::uint16_t port, std::uint64_t id) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
        const auto status = service_get_json(
            port, "/campaigns/" + std::to_string(id) + "/status");
        const std::string state = status.get_str("state");
        if (state == "done" || state == "failed" ||
            std::chrono::steady_clock::now() > deadline)
            return status;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/// Jobs/second through the full service path, cache-hit latency for an
/// identical resubmission, and served-result identity against a direct
/// engine run of the same recipe.
int run_service_report(const std::string& json_path) {
    constexpr std::size_t kJobs = 4;
    constexpr std::size_t kWorkers = 2;

    const auto state_dir =
        std::filesystem::temp_directory_path() / "statfi_service_bench";
    std::filesystem::remove_all(state_dir);

    service::DaemonOptions options;
    options.port = 0;  // ephemeral
    options.workers = kWorkers;
    options.default_shards = 2;
    options.state_dir = state_dir.string();
    service::ServiceDaemon daemon(options);
    daemon.start();
    const std::uint16_t port = daemon.port();

    const auto recipe = [](std::uint64_t seed) {
        return std::string(R"({"model":"micronet","approach":"exhaustive",)"
                           R"("images":2,"policy":"golden","seed":)") +
               std::to_string(seed) + "}";
    };

    // Batch of distinct campaigns: submit all, then poll each to done.
    const auto batch_start = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids;
    for (std::size_t j = 0; j < kJobs; ++j)
        ids.push_back(
            service_post_json(port, "/campaigns", recipe(100 + j)).get_uint("id"));
    bool all_done = true;
    std::uint64_t classified = 0;
    for (const std::uint64_t id : ids) {
        const auto status = service_await(port, id);
        all_done = all_done && status.get_str("state") == "done";
        classified += status.get_uint("classified");
    }
    const double batch_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batch_start)
            .count();

    // Identical resubmission: POST-to-done latency of a pure cache hit.
    const auto hit_start = std::chrono::steady_clock::now();
    const std::uint64_t hit_id =
        service_post_json(port, "/campaigns", recipe(100)).get_uint("id");
    const auto hit_status = service_await(port, hit_id);
    const double hit_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      hit_start)
            .count();
    const bool cache_hit = hit_status.get_bool("cache_hit") &&
                           hit_status.get_uint("classified") == 0;

    // Served result vs the direct engine path on the same recipe.
    const auto result = service_get_json(
        port, "/campaigns/" + std::to_string(ids[0]) + "/result.json");
    daemon.stop();
    const auto sub = service::parse_submission(recipe(100));
    auto fx = shard::build_fixture(sub.recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    const auto direct = engine.run_exhaustive_durable(fx.universe, {});
    const bool identical =
        result.get_uint("total_injected") == fx.universe.total() &&
        result.get_uint("total_critical") ==
            direct.outcomes.critical_count(0, fx.universe.total());

    std::filesystem::remove_all(state_dir);
    const bool pass = all_done && cache_hit && identical;

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_perf: cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"fixture\": \"micronet exhaustive census, 2 synthetic test "
           "images, GoldenMismatch, distinct seeds\",\n"
        << "  \"jobs\": " << kJobs << ",\n"
        << "  \"workers\": " << kWorkers << ",\n"
        << "  \"shards_per_job\": " << options.default_shards << ",\n"
        << "  \"classified_total\": " << classified << ",\n"
        << "  \"batch_wall_seconds\": " << batch_wall << ",\n"
        << "  \"jobs_per_second\": "
        << static_cast<double>(kJobs) / batch_wall << ",\n"
        << "  \"cache_hit_seconds\": " << hit_wall << ",\n"
        << "  \"cache_hit\": " << (cache_hit ? "true" : "false") << ",\n"
        << "  \"result_identical_to_direct\": "
        << (identical ? "true" : "false") << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "service scheduling: " << kJobs << " jobs in " << batch_wall
              << " s (" << static_cast<double>(kJobs) / batch_wall
              << " jobs/s, " << kWorkers << " workers), cache hit in "
              << hit_wall << " s, identical "
              << (identical ? "yes" : "NO") << "\nreport written to "
              << json_path << "\n";
    if (!pass)
        std::cerr << "bench_perf: service gate FAILED (incomplete jobs, "
                     "missed cache, or result divergence above)\n";
    return pass ? 0 : 1;
}

// --- fleet observability plane overhead (--fleet-json) --------------------

/// One daemon life with the fleet plane on or off: submit @p jobs distinct
/// campaigns, await them, and collect the served outcomes plus (fleet mode)
/// the plane's artifacts — metrics history samples, the merged trace's
/// process count and trace id, and the /fleet listing.
struct FleetModeResult {
    double wall = 0.0;
    bool all_done = true;
    bool fleet_listed = true;
    std::vector<std::array<std::uint64_t, 2>> outcomes;  ///< injected, critical
    std::uint64_t history_samples = 0;
    std::size_t trace_processes = 0;
    std::string trace_id;
};

FleetModeResult run_fleet_mode(bool fleet, std::size_t jobs) {
    const auto state_dir =
        std::filesystem::temp_directory_path() /
        (fleet ? "statfi_fleet_bench_on" : "statfi_fleet_bench_off");
    std::filesystem::remove_all(state_dir);
    service::DaemonOptions options;
    options.port = 0;  // ephemeral
    options.workers = 2;
    options.default_shards = 3;
    options.state_dir = state_dir.string();
    options.fleet = fleet;
    service::ServiceDaemon daemon(options);
    daemon.start();
    const std::uint16_t port = daemon.port();

    FleetModeResult r;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids;
    for (std::size_t j = 0; j < jobs; ++j)
        ids.push_back(
            service_post_json(
                port, "/campaigns",
                std::string(
                    R"({"model":"micronet","approach":"exhaustive",)"
                    R"("images":4,"policy":"golden","seed":)") +
                    std::to_string(500 + j) + "}")
                .get_uint("id"));
    for (const std::uint64_t id : ids) {
        const auto status = service_await(port, id);
        r.all_done = r.all_done && status.get_str("state") == "done";
    }
    r.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();

    for (const std::uint64_t id : ids) {
        const auto result = service_get_json(
            port, "/campaigns/" + std::to_string(id) + "/result.json");
        r.outcomes.push_back({result.get_uint("total_injected"),
                              result.get_uint("total_critical")});
    }
    const auto fleet_view = service_get_json(port, "/fleet");
    const report::JsonValue* listed = fleet_view.find("jobs");
    r.fleet_listed = listed && listed->array.size() == jobs;
    if (fleet) {
        const auto history = service_get_json(
            port, "/campaigns/" + std::to_string(ids[0]) + "/history");
        if (const report::JsonValue* samples = history.find("samples"))
            r.history_samples = samples->array.size();
        const auto trace = service_get_json(
            port, "/campaigns/" + std::to_string(ids[0]) + "/trace");
        for (const report::JsonValue& e : trace.array) {
            if (e.get_str("name") == "process_name") ++r.trace_processes;
            if (e.get_str("name") == "statfi_trace") {
                const report::JsonValue* args = e.find("args");
                const std::string id_text =
                    args ? args->get_str("trace_id") : "";
                if (r.trace_id.empty())
                    r.trace_id = id_text;
                else if (r.trace_id != id_text)
                    r.trace_id = "MISMATCH";
            }
        }
    }
    daemon.stop();
    std::filesystem::remove_all(state_dir);
    return r;
}

/// The service batch with the fleet plane off vs on: same alternating-rep,
/// best-of-wall protocol and 3% ceiling as the telemetry gates, plus
/// artifact validation (history sampled, one trace_id across daemon + every
/// shard, /fleet listing) and served-outcome identity across modes.
int run_fleet_report(const std::string& json_path) {
    constexpr std::size_t kJobs = 2;
    // Daemon-lifetime walls jitter by a few percent run-to-run (thread
    // scheduling, page-cache warmth), which dwarfs the plane's true cost;
    // best-of-5 per mode converges where best-of-3 still bounces.
    constexpr int kReps = 5;
    double best_wall[2] = {1e300, 1e300};  // [off, on]
    FleetModeResult last[2];
    bool all_done = true;
    for (int rep = 0; rep < kReps; ++rep) {
        for (int mode = 0; mode < 2; ++mode) {
            FleetModeResult r = run_fleet_mode(mode == 1, kJobs);
            all_done = all_done && r.all_done && r.fleet_listed;
            best_wall[mode] = std::min(best_wall[mode], r.wall);
            last[mode] = std::move(r);
        }
    }
    const bool identical = last[0].outcomes == last[1].outcomes &&
                           !last[0].outcomes.empty();
    const double overhead_pct =
        (best_wall[1] - best_wall[0]) / best_wall[0] * 100.0;
    // daemon + 3 shards = 4 processes minimum under one non-empty trace id
    const bool artifacts = last[1].history_samples >= 1 &&
                           last[1].trace_processes >= 4 &&
                           !last[1].trace_id.empty() &&
                           last[1].trace_id != "MISMATCH";
    const bool pass = all_done && identical && artifacts &&
                      overhead_pct <= kMaxTelemetryOverheadPct;

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "bench_perf: cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"fixture\": \"micronet exhaustive census, 4 synthetic test "
           "images, GoldenMismatch, distinct seeds, 3 shards/job\",\n"
        << "  \"instrumentation\": \"fleet plane: per-shard trace sessions "
           "+ 200ms metrics sampler (metrics.tsf, read by /fleet) + merged "
           "trace\",\n"
        << "  \"jobs\": " << kJobs << ",\n"
        << "  \"reps_per_mode\": " << kReps << ",\n"
        << "  \"off_wall_seconds\": " << best_wall[0] << ",\n"
        << "  \"on_wall_seconds\": " << best_wall[1] << ",\n"
        << "  \"jobs_per_second\": "
        << static_cast<double>(kJobs) / best_wall[1] << ",\n"
        << "  \"overhead_pct\": " << overhead_pct << ",\n"
        << "  \"max_overhead_pct\": " << kMaxTelemetryOverheadPct << ",\n"
        << "  \"history_samples\": " << last[1].history_samples << ",\n"
        << "  \"trace_processes\": " << last[1].trace_processes << ",\n"
        << "  \"trace_id\": \"" << last[1].trace_id << "\",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "fleet plane overhead: " << overhead_pct << "% (off "
              << best_wall[0] << " s, on " << best_wall[1] << " s, gate "
              << kMaxTelemetryOverheadPct << "%), outcomes identical "
              << (identical ? "yes" : "NO") << ", "
              << last[1].history_samples << " history sample(s), "
              << last[1].trace_processes << " trace process(es) under trace "
              << last[1].trace_id << "\nreport written to " << json_path
              << "\n";
    if (!pass)
        std::cerr << "bench_perf: fleet gate FAILED (overhead "
                  << overhead_pct << "% > " << kMaxTelemetryOverheadPct
                  << "%, missing artifacts, or divergence above)\n";
    return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string formats_json_path;
    std::string kernels_json_path;
    std::string telemetry_json_path;
    std::string observatory_json_path;
    std::string service_json_path;
    std::string fleet_json_path;
    std::uint64_t max_faults = 0;  // 0 = full census
    std::size_t threads = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--formats-json" && i + 1 < argc) {
            formats_json_path = argv[++i];
        } else if (arg == "--kernels-json" && i + 1 < argc) {
            kernels_json_path = argv[++i];
        } else if (arg == "--telemetry-json" && i + 1 < argc) {
            telemetry_json_path = argv[++i];
        } else if (arg == "--observatory-json" && i + 1 < argc) {
            observatory_json_path = argv[++i];
        } else if (arg == "--service-json" && i + 1 < argc) {
            service_json_path = argv[++i];
        } else if (arg == "--fleet-json" && i + 1 < argc) {
            fleet_json_path = argv[++i];
        } else if (arg == "--faults" && i + 1 < argc) {
            max_faults = std::stoull(argv[++i]);
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = std::stoul(argv[++i]);
        }
    }
    if (!fleet_json_path.empty()) return run_fleet_report(fleet_json_path);
    if (!service_json_path.empty())
        return run_service_report(service_json_path);
    if (!observatory_json_path.empty())
        return run_observatory_report(observatory_json_path, max_faults);
    if (!telemetry_json_path.empty())
        return run_telemetry_report(telemetry_json_path, max_faults);
    if (!formats_json_path.empty())
        return run_formats_report(formats_json_path, max_faults, threads);
    if (!kernels_json_path.empty())
        return run_kernels_report(kernels_json_path, max_faults, threads);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
