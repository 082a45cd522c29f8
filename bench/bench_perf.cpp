// Engineering micro-benchmarks (google-benchmark): the costs that determine
// campaign throughput — forward passes, partial re-execution, injection,
// sampling, and planning. Not a paper table; quantifies DESIGN.md §5's
// claims (partial re-execution speedup, masked short-circuit).
//
// `bench_perf --gates` runs the repository's two overhead gates instead:
// the same fixture with its instrumentation off and on, in one process,
// kPairs times each. Pair i runs off then on when i is even and on then off
// when i is odd; its overhead is on / off - 1. stats::judge_overhead reads
// the median and quartiles of the overheads against the 3% ceiling:
// `pass`, `exceeded`, or `unresolved` when the pairs spread too widely for
// this machine to tell. Each gate also checks what the on side must
// produce and that instrumentation never changes an outcome.
//
//   observatory  the engine census on a 20,000-fault prefix, bare vs under
//                the full observatory of DESIGN.md §5.12–§5.13: metrics,
//                tracing, the JSONL event log, and the campaign routes
//                polled live on a loopback port;
//   fleet        an in-process ServiceDaemon running two census jobs with
//                the fleet plane of DESIGN.md decision 18 off vs on.
//
// One JSON document goes to stdout: per gate, the fixture, the ceiling,
// every run's wall, every pair's overhead, the median and quartiles, the
// verdict and the checks. Progress goes to stderr. The exit code is 1 when a
// gate reads `exceeded` or a check fails; `unresolved` exits 0.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "core/convergence.hpp"
#include "core/data_aware.hpp"
#include "core/engine.hpp"
#include "core/planner.hpp"
#include "data/synthetic.hpp"
#include "fault/injector.hpp"
#include "models/registry.hpp"
#include "nn/init.hpp"
#include "report/json_parse.hpp"
#include "service/daemon.hpp"
#include "stats/descriptive.hpp"
#include "stats/sampling.hpp"
#include "support/http_client.hpp"
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

// --- paired overhead gates (--gates) ---------------------------------------

/// Off/on pairs per gate: the benchmark's ten-pair rule.
constexpr int kPairs = 10;
/// What instrumentation may cost over the bare run, as a share of its wall.
constexpr double kCeiling = 0.03;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One gate's record: every run's wall, the pairs' overheads and their
/// reading, and the named checks the runs must all pass.
struct Gate {
    std::string name;
    std::string fixture;
    std::vector<double> off, on, overheads;
    stats::OverheadReading reading;
    std::vector<std::pair<std::string, bool>> checks;
};

/// Time kPairs off/on pairs of @p run (its argument says which side, its
/// result is the timed wall in seconds) and judge the overheads.
void run_pairs(Gate& gate, const std::function<double(bool)>& run) {
    for (int i = 0; i < kPairs; ++i) {
        double wall[2] = {0.0, 0.0};  // [off, on]
        const bool on_first = i % 2 == 1;
        wall[on_first] = run(on_first);
        wall[!on_first] = run(!on_first);
        gate.off.push_back(wall[0]);
        gate.on.push_back(wall[1]);
        gate.overheads.push_back(wall[1] / wall[0] - 1.0);
        std::cerr << gate.name << " pair " << i << ": off " << wall[0]
                  << " s, on " << wall[1] << " s, overhead "
                  << gate.overheads.back() * 100.0 << "%\n";
    }
    gate.reading = stats::judge_overhead(gate.overheads, kCeiling);
}

/// `observatory`: the census prefix bare (off) vs under a telemetry::Session
/// with metrics, tracing and the JSONL event log, plus add_campaign_routes
/// on an ephemeral loopback port that a client polls (/status, which folds
/// the log, and /metrics) every 50 ms while the census runs. Every run's
/// outcome table must equal the first run's, and every on run must count
/// the prefix in statfi_faults_total, log events and answer requests.
Gate observatory_gate() {
    constexpr std::uint64_t kFaults = 20000;
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
    core::DurabilityOptions durability;
    durability.range_end = std::min(kFaults, universe.total());
    const std::uint64_t faults = durability.range_end;

    const auto log_path = std::filesystem::temp_directory_path() /
                          "statfi_observatory_gate.jsonl";
    core::CampaignHeaderInfo header;
    header.command = "bench";
    header.model = "micronet";
    header.approach = "exhaustive";
    header.dtype = "fp32";
    header.policy = "golden-mismatch";
    header.seed = 424242;
    header.images = 4;

    Gate gate;
    gate.name = "observatory";
    gate.fixture =
        "micronet kaiming(424242), 4 synthetic test images, GoldenMismatch, "
        "first " + std::to_string(faults) + " stuck-at faults of " +
        std::to_string(universe.total()) + ", 1 worker";
    core::ExhaustiveOutcomes reference;
    bool have_reference = false;
    bool identical = true, counted = true, logged = true, served = true;
    run_pairs(gate, [&](bool on) {
        auto net = make_net();
        std::unique_ptr<telemetry::Session> session;
        std::unique_ptr<telemetry::HttpServer> server;
        std::jthread poller;  // after the server: stopped and joined first
        if (on) {
            session = std::make_unique<telemetry::Session>();
            session->open_event_log(log_path.string());
            core::emit_campaign_header(*session->events(), header);
            server = std::make_unique<telemetry::HttpServer>(
                telemetry::HttpServer::Options{});
            telemetry::add_campaign_routes(*server, *session);
            server->start();
            poller = std::jthread(
                [port = server->port()](std::stop_token stop) {
                    while (!stop.stop_requested()) {
                        testsupport::http_get(port, "/status");
                        testsupport::http_get(port, "/metrics");
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                    }
                });
        }
        core::CampaignEngine engine(net, eval, config, 1, session.get());
        const auto start = Clock::now();
        const auto run = engine.run_exhaustive_durable(universe, durability);
        const double wall = seconds_since(start);
        if (!have_reference) {
            reference = run.outcomes;
            have_reference = true;
        }
        for (std::uint64_t i = 0; identical && i < faults; ++i)
            identical = run.outcomes.at(i) == reference.at(i);
        if (session) {
            const auto snap = session->metrics().snapshot();
            const auto* m = snap.find("statfi_faults_total");
            counted = counted && m && m->counter == faults;
            core::emit_campaign_end(*session->events(), run.complete, faults,
                                    run.outcomes.critical_count(0, faults),
                                    wall);
            // at least the header and campaign_end, and the poller's first
            // /status and /metrics
            logged = logged && session->events()->events_written() >= 2;
            served = served && server->requests_served() >= 2;
        }
        return wall;
    });
    std::filesystem::remove(log_path);
    gate.checks = {{"outcomes_identical", identical},
                   {"faults_counter_matches", counted},
                   {"events_logged", logged},
                   {"requests_served", served}};
    return gate;
}

report::JsonValue get_json(std::uint16_t port, const std::string& target) {
    const std::string body =
        testsupport::http_body(testsupport::http_get(port, target));
    return body.empty() ? report::JsonValue{} : report::parse_json(body);
}

/// Poll a job to its terminal state; returns the final status document.
report::JsonValue await_job(std::uint16_t port, std::uint64_t id) {
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    for (;;) {
        const auto status =
            get_json(port, "/campaigns/" + std::to_string(id) + "/status");
        const std::string state = status.get_str("state");
        if (state == "done" || state == "failed" || Clock::now() > deadline)
            return status;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/// `fleet`: an in-process ServiceDaemon with DaemonOptions::fleet off vs on
/// (per-shard trace sessions, the metrics sampler whose metrics.tsf /fleet
/// reads, the merged per-job trace), timed from the first submission to the
/// last job done. Every job must end done and be listed by /fleet, every
/// run must serve the first run's (injected, critical) counts, and every on
/// run must leave a metrics history and a merged trace of the daemon and
/// the three shards under one trace id.
Gate fleet_gate() {
    constexpr std::size_t kJobs = 2;
    Gate gate;
    gate.name = "fleet";
    gate.fixture =
        "2 micronet exhaustive census jobs (seeds 500, 501), 2 synthetic test "
        "images, GoldenMismatch, 2 workers, 3 shards per job";
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reference;
    bool done = true, listed = true, identical = true, history = true,
         traced = true;
    run_pairs(gate, [&](bool on) {
        const auto state_dir =
            std::filesystem::temp_directory_path() / "statfi_fleet_gate";
        std::filesystem::remove_all(state_dir);
        service::DaemonOptions options;
        options.port = 0;  // ephemeral
        options.workers = 2;
        options.default_shards = 3;
        options.state_dir = state_dir.string();
        options.fleet = on;
        service::ServiceDaemon daemon(options);
        daemon.start();
        const std::uint16_t port = daemon.port();

        const auto start = Clock::now();
        std::vector<std::uint64_t> ids;
        for (std::size_t j = 0; j < kJobs; ++j) {
            const std::string recipe =
                R"({"model":"micronet","approach":"exhaustive","images":2,)"
                R"("policy":"golden","seed":)" +
                std::to_string(500 + j) + "}";
            const std::string accepted = testsupport::http_body(
                testsupport::http_post(port, "/campaigns", recipe));
            ids.push_back(report::parse_json(accepted).get_uint("id"));
        }
        for (const std::uint64_t id : ids)
            done = done && await_job(port, id).get_str("state") == "done";
        const double wall = seconds_since(start);

        std::vector<std::pair<std::uint64_t, std::uint64_t>> served;
        for (const std::uint64_t id : ids) {
            const auto result = get_json(
                port, "/campaigns/" + std::to_string(id) + "/result.json");
            served.emplace_back(result.get_uint("total_injected"),
                                result.get_uint("total_critical"));
        }
        if (reference.empty()) reference = served;
        identical = identical && served == reference;
        const report::JsonValue* jobs = get_json(port, "/fleet").find("jobs");
        listed = listed && jobs && jobs->array.size() == kJobs;
        if (on) {
            const std::string job = "/campaigns/" + std::to_string(ids[0]);
            const report::JsonValue* samples =
                get_json(port, job + "/history").find("samples");
            history = history && samples && !samples->array.empty();
            std::size_t processes = 0;
            std::set<std::string> trace_ids;
            for (const report::JsonValue& e :
                 get_json(port, job + "/trace").array) {
                if (e.get_str("name") == "process_name") ++processes;
                const report::JsonValue* args = e.find("args");
                if (e.get_str("name") == "statfi_trace" && args)
                    trace_ids.insert(args->get_str("trace_id"));
            }
            // daemon + 3 shards, all under one non-empty trace id
            traced = traced && processes >= 4 && trace_ids.size() == 1 &&
                     !trace_ids.begin()->empty();
        }
        daemon.stop();
        std::filesystem::remove_all(state_dir);
        return wall;
    });
    gate.checks = {{"jobs_done", done},
                   {"fleet_lists_jobs", listed},
                   {"outcomes_identical", identical},
                   {"history_sampled", history},
                   {"trace_merged", traced}};
    return gate;
}

void print_doubles(std::ostream& out, const std::vector<double>& xs) {
    out << "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out << (i ? ", " : "") << xs[i];
    out << "]";
}

/// Run both gates, print their JSON document on stdout, and return the
/// exit code: 1 when a gate exceeds its ceiling or fails a check.
int run_gates() {
    std::vector<Gate> gates;
    gates.push_back(observatory_gate());
    gates.push_back(fleet_gate());

    bool failed = false;
    std::cout << "{\n  \"pairs\": " << kPairs << ",\n  \"gates\": {\n";
    for (std::size_t g = 0; g < gates.size(); ++g) {
        const Gate& gate = gates[g];
        const auto& r = gate.reading;
        failed = failed || r.verdict == stats::GateVerdict::Exceeded;
        std::cout << "    \"" << gate.name << "\": {\n"
                  << "      \"fixture\": \"" << gate.fixture << "\",\n"
                  << "      \"ceiling\": " << kCeiling << ",\n"
                  << "      \"off_wall_seconds\": ";
        print_doubles(std::cout, gate.off);
        std::cout << ",\n      \"on_wall_seconds\": ";
        print_doubles(std::cout, gate.on);
        std::cout << ",\n      \"overheads\": ";
        print_doubles(std::cout, gate.overheads);
        std::cout << ",\n      \"median\": " << r.median
                  << ",\n      \"q1\": " << r.q1 << ",\n      \"q3\": " << r.q3
                  << ",\n      \"verdict\": \"" << stats::to_string(r.verdict)
                  << "\",\n      \"checks\": {";
        for (std::size_t c = 0; c < gate.checks.size(); ++c) {
            const auto& [name, ok] = gate.checks[c];
            failed = failed || !ok;
            std::cout << (c ? ", " : "") << "\"" << name
                      << "\": " << (ok ? "true" : "false");
        }
        std::cout << "}\n    }" << (g + 1 < gates.size() ? "," : "") << "\n";
        std::cerr << gate.name << ": median " << r.median * 100.0 << "% [q1 "
                  << r.q1 * 100.0 << "%, q3 " << r.q3 * 100.0 << "%] vs "
                  << kCeiling * 100.0 << "% -> "
                  << stats::to_string(r.verdict) << "\n";
    }
    std::cout << "  }\n}\n";
    return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::strcmp(argv[1], "--gates") == 0) return run_gates();

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
