// statfi — command-line front end for the StatFI library.
//
//   statfi models
//   statfi profile  --model <name> [--dtype fp32|fp16|bf16|int8] [--seed S]
//   statfi plan     --model <name> --approach <a> [--margin E] [--confidence C]
//                   [--dtype T] [--seed S]
//   statfi campaign --model <name> --approach <a> [--margin E] [--confidence C]
//                   [--images N] [--policy any|golden|drop] [--train]
//                   [--dtype T] [--seed S] [--threads N] [--json]
//                   [--resume] [--journal PATH] [--out PATH (census only)]
//   statfi exhaustive ...   (= campaign --approach exhaustive)
//   statfi shard plan    --manifest PATH --shards N --model <name>
//                        --approach <a> [campaign options]
//   statfi shard run     --manifest PATH --shard K [--resume] [--threads N]
//   statfi shard run-all --manifest PATH [--jobs J] [--threads N]
//   statfi shard merge   --manifest PATH [--out PATH] [--json]
//   statfi report        --log PATH [--out PATH.html]
//   statfi report        --manifest PATH [--out PATH.html]
//   statfi report        --diff A.jsonl B.jsonl [--out PATH.html] [--json]
//   statfi report        --matrix A.jsonl B.jsonl ... [--out PATH.html]
//   statfi report        --history metrics.tsf [--out PATH.html]
//   statfi trace merge   A.json B.json ... --out merged.json
//   statfi tail          <http://127.0.0.1:PORT/campaigns/N/events | LOG>
//   statfi version       [--json]
//
// Approaches: exhaustive | network-wise | layer-wise | data-unaware |
// data-aware. --train fits the model on the synthetic dataset first
// (recommended for micronet; the big topologies run with Kaiming weights and
// the golden-mismatch policy unless trained). Trained weights are cached
// per (model, seed) under $STATFI_CACHE_DIR (default .statfi_cache), which
// also holds the default checkpoint journals.
//
// Durability: `campaign` (census or sample) and `shard run` journal every
// classified item to a checkpoint file. Ctrl-C flushes the journal and
// exits cleanly; rerunning with --resume continues from the last valid
// record and produces outcomes bit-identical to an uninterrupted run.
//
// Scale-out: `shard plan` freezes a campaign (recipe + fingerprint + plan +
// contiguous item ranges) into a checksummed manifest; `shard run` executes
// one shard anywhere the manifest and binary are; `shard run-all` fans the
// shards out over local subprocesses; `shard merge` validates every shard
// artifact and reassembles the exact unsharded result.
//
// Output contract: --json prints exactly one JSON document on stdout;
// everything human (banners, training chatter, progress heartbeats) goes to
// stderr. Without --json, human output goes to stdout and heartbeats still
// go to stderr.
//
// Observability: --metrics-out writes campaign counters/gauges/histograms
// (Prometheus text, or JSON when the path ends in .json), --trace-out a
// Chrome trace of the campaign phases (load into chrome://tracing or
// Perfetto), --perf-counters folds per-phase hardware counters into the
// metrics (Linux perf_event_open; degrades to a stderr note elsewhere).
//
// Observatory (DESIGN.md §5.13): --log-out appends the structured JSONL
// event log (statfi.eventlog.v1 — header, phases, per-stratum estimator
// convergence, shard lifecycle), --serve-status PORT starts a read-only
// localhost HTTP endpoint (/status /metrics /trace; PORT 0 picks a free
// port) for live observation — /status is a fold over the --log-out log,
// so it needs that flag — and `statfi report` turns an event log or a
// merged shard campaign into a self-contained single-file HTML report
// (`--diff A B` flags strata whose confidence intervals no longer
// overlap). Telemetry never perturbs outcomes: results are bit-identical
// with every flag on or off.
//
// Fleet plane (DESIGN.md decision 18): --trace-id/--parent-span (or the
// STATFI_TRACE_ID / STATFI_PARENT_SPAN environment, which `shard run-all`
// and the service set for their children) stamp one 64-bit trace across
// every process of a campaign, so shard event logs and Chrome traces
// correlate; `shard run-all --trace-out` merges the driver's and every
// child's trace into one timeline, `statfi trace merge` stitches arbitrary
// per-process traces, `statfi report --history` renders a metrics.tsf ring
// as sparklines, and `statfi tail` follows a live event stream (the
// daemon's /campaigns/<id>/events?follow=1 or a local log) rendering
// per-stratum convergence as it happens.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/convergence.hpp"
#include "core/data_aware.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "formats/format.hpp"
#include "io/atomic_file.hpp"
#include "kernels/registry.hpp"
#include "models/registry.hpp"
#include "report/history_html.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "report/observatory.hpp"
#include "report/table.hpp"
#include "service/daemon.hpp"
#include "service/recipe_json.hpp"
#include "shard/driver.hpp"
#include "shard/fixture.hpp"
#include "shard/manifest.hpp"
#include "shard/merge.hpp"
#include "shard/runner.hpp"
#include "shard/summary.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/history.hpp"
#include "telemetry/http.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace statfi;

core::CancellationToken g_interrupt;
std::string g_argv0;

void handle_sigint(int) { g_interrupt.request_stop(); }

struct Options {
    std::string command;
    std::string subcommand;  ///< for `shard`: plan|run|run-all|merge
    std::string model = "micronet";
    std::string approach;  ///< "" = the fault model's default (make_recipe)
    /// stuck-at | flip | mbu[-kN] | activation (fault::fault_model_from_string)
    std::string fault_model = "stuck-at";
    std::optional<std::int64_t> mbu_k;  ///< --mbu-k: overrides mbu-kN's k
    std::vector<std::string> clips;  ///< raw --clip NODE:LO:HI rules
    std::vector<std::string> tmrs;   ///< raw --tmr LAYER rules
    double margin = 0.01;
    double confidence = 0.99;
    std::int64_t images = 8;
    std::string policy = "any";
    bool train = false;
    fault::DataType dtype = fault::DataType::Float32;
    std::uint64_t seed = 2023;
    bool resume = false;    ///< continue from an existing matching journal
    std::string journal;    ///< override the default journal path
    std::size_t threads = 1;  ///< campaign/exhaustive workers (0 = all cores)
    bool json = false;      ///< machine-readable stdout, humans on stderr
    std::string out;        ///< census runs/merges: write the outcome table here
    std::string manifest;   ///< shard commands: manifest path
    std::uint32_t shards = 0;  ///< shard plan: number of shards
    std::uint32_t shard = 0;   ///< shard run: which shard
    std::size_t jobs = 1;      ///< shard run-all: concurrent subprocesses
    std::string metrics_out;   ///< write metrics here (.json => JSON)
    std::string trace_out;     ///< write Chrome trace JSON here
    bool perf_counters = false;  ///< sample hardware perf counters
    std::string log_out;       ///< write the JSONL event log here
    int serve_status = -1;     ///< HTTP status port (-1 off, 0 ephemeral)
    std::string log_in;        ///< report: event log to render
    std::string diff_a, diff_b;  ///< report --diff: the two event logs
    std::vector<std::string> matrix;  ///< report --matrix: N event logs
    std::string kernels;    ///< --kernels generic|native|auto ("" = auto)
    std::size_t ensemble = 0;  ///< --ensemble: faults per blocked pass (0 = default)
    std::string state_dir;     ///< serve: daemon state directory
    std::size_t workers = 2;   ///< serve: concurrent campaigns
    int port = 0;              ///< serve: HTTP port (0 picks a free port)
    std::string trace_id;      ///< --trace-id: fleet trace (16 hex digits)
    std::string parent_span;   ///< --parent-span: the spawning span's id
    bool no_fleet = false;     ///< serve: disable the fleet plane
    std::string history_in;    ///< report --history: metrics.tsf to render
    std::vector<std::string> inputs;  ///< tail/trace merge: positional args
};

[[noreturn]] void usage(const std::string& error = "") {
    if (!error.empty()) std::cerr << "error: " << error << "\n\n";
    std::cerr <<
        "usage: statfi <command> [options]\n"
        "commands:\n"
        "  models                      list available model topologies\n"
        "  profile                     data-aware bit-criticality profile\n"
        "  plan                        print campaign plan (no injections)\n"
        "  campaign                    run a statistical FI campaign\n"
        "  activation                  transient activation-flip campaign\n"
        "                              (campaign --fault-model activation)\n"
        "  exhaustive                  run the exhaustive census\n"
        "                              (campaign --approach exhaustive)\n"
        "  shard plan                  write a shard manifest for a campaign\n"
        "  shard run                   run one shard of a manifest\n"
        "  shard run-all               run all shards as local subprocesses\n"
        "  shard merge                 validate + merge shard results\n"
        "  report                      render an event log (or a merged\n"
        "                              shard campaign) as a self-contained\n"
        "                              HTML report; --diff compares two logs\n"
        "  serve                       run the campaign service daemon:\n"
        "                              accept recipe submissions over HTTP,\n"
        "                              schedule them across a worker pool,\n"
        "                              cache results by recipe fingerprint\n"
        "  trace merge                 stitch per-process Chrome traces of\n"
        "                              one campaign into a single correlated\n"
        "                              timeline (requires --out)\n"
        "  tail                        follow a live campaign event stream\n"
        "                              (the daemon's /campaigns/<id>/events\n"
        "                              URL or a local event-log path) and\n"
        "                              render per-stratum convergence\n"
        "  version                     print version, kernel backend, and\n"
        "                              CPU features (--json for a document)\n"
        "options:\n"
        "  --model NAME                micronet|resnet20|resnet32|mobilenetv2\n"
        "  --approach A                exhaustive|network-wise|layer-wise|\n"
        "                              data-unaware|data-aware\n"
        "  --fault-model M             stuck-at|flip|mbu[-kN]|activation\n"
        "                              (default stuck-at; mbu defaults to\n"
        "                              k=2, mbu-k3 or --mbu-k set k)\n"
        "  --mbu-k K                   simultaneous bit flips per upset\n"
        "                              (--fault-model mbu only)\n"
        "  --clip NODE:LO:HI           mitigation: clamp NODE's activations\n"
        "                              to [LO, HI] ('*' = every node;\n"
        "                              repeatable)\n"
        "  --tmr LAYER                 mitigation: triplicate LAYER's\n"
        "                              weights, majority vote ('*' = every\n"
        "                              weight layer; repeatable)\n"
        "  --margin E                  error margin (default 0.01)\n"
        "  --confidence C              confidence level (default 0.99)\n"
        "  --images N                  evaluation images per fault (default 8)\n"
        "  --policy P                  any|golden|drop (default any)\n"
        "  --train                     train the model first (synthetic data)\n"
        "  --format T                  number format the weights are stored\n"
        "                              in: fp32|fp16|bf16|int8 (default\n"
        "                              fp32; --dtype is an alias)\n"
        "  --seed S                    master seed (default 2023)\n"
        "  --threads N                 worker threads (default 1; 0 = all cores)\n"
        "  --kernels B                 compute backend: generic|native|auto\n"
        "                              (default auto: native SIMD when the\n"
        "                              CPU supports it; outcomes are\n"
        "                              bit-identical either way)\n"
        "  --ensemble N                faults per blocked ensemble pass\n"
        "                              (default 8; 1 = one fault per pass,\n"
        "                              same path; throughput only, never\n"
        "                              outcomes)\n"
        "  --resume                    continue from the journal left by an\n"
        "                              interrupted run\n"
        "  --journal PATH              campaign/activation/exhaustive:\n"
        "                              checkpoint journal path (default:\n"
        "                              named by the campaign, under the\n"
        "                              cache directory)\n"
        "  --json                      one JSON document on stdout; all human\n"
        "                              output and progress on stderr\n"
        "  --out PATH                  census runs and census merges: save\n"
        "                              the dense outcome table to PATH\n"
        "  --manifest PATH             shard commands: the manifest artifact\n"
        "  --shards N                  shard plan: partition into N shards\n"
        "  --shard K                   shard run: which shard to execute\n"
        "  --jobs J                    shard run-all: concurrent shard\n"
        "                              subprocesses (default 1)\n"
        "  --metrics-out PATH          campaign/exhaustive/shard run/merge:\n"
        "                              write campaign metrics to PATH\n"
        "                              (Prometheus text; .json => JSON)\n"
        "  --trace-out PATH            write a Chrome trace (chrome://tracing\n"
        "                              / Perfetto) of the campaign phases\n"
        "  --perf-counters             include hardware perf counters per\n"
        "                              phase (Linux perf_event_open)\n"
        "  --log-out PATH              write the structured JSONL event log\n"
        "                              (statfi.eventlog.v1) of the campaign\n"
        "  --serve-status PORT         serve /status /metrics /trace on\n"
        "                              127.0.0.1:PORT while the campaign\n"
        "                              runs (0 picks a free port); needs\n"
        "                              --log-out, which /status reads\n"
        "  --trace-id HEX              fleet trace to join (16 lowercase hex\n"
        "                              digits; env STATFI_TRACE_ID is the\n"
        "                              fallback — run-all and the service\n"
        "                              pass it to their children)\n"
        "  --parent-span HEX           the spawning process's span id (env\n"
        "                              STATFI_PARENT_SPAN)\n"
        "  --log PATH                  report: the event log to render\n"
        "  --history PATH              report: render a metrics.tsf history\n"
        "                              ring as sparkline rows\n"
        "  --diff A B                  report: flag strata whose confidence\n"
        "                              intervals no longer overlap\n"
        "  --matrix LOG...             report: render N campaign logs side\n"
        "                              by side (per-format heatmaps);\n"
        "                              same-format CI divergence exits 3\n"
        "  --state DIR                 serve: state directory (queue, cache,\n"
        "                              service event log)\n"
        "  --port P                    serve: HTTP port on 127.0.0.1\n"
        "                              (default 0: pick a free port)\n"
        "  --workers N                 serve: concurrent campaigns\n"
        "                              (default 2; --shards sets the\n"
        "                              partition width per campaign,\n"
        "                              --threads the engine workers per\n"
        "                              shard)\n"
        "  --no-fleet                  serve: disable the fleet plane (no\n"
        "                              traces or metrics history; /fleet\n"
        "                              shows job records; outcomes are\n"
        "                              identical)\n";
    std::exit(2);
}

fault::DataType parse_dtype(const std::string& s) {
    try {
        return formats::parse_format(s);
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
}

/// The whole of @p text as a T (an integer type or double), or a usage
/// error naming @p flag: "abc" or "7x" must not run as 0 or 7, and a value
/// out of T's range is refused rather than wrapped.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        usage(flag + " expects a number, got '" + text + "'");
    return value;
}

Options parse(int argc, char** argv) {
    if (argc < 2) usage();
    Options opt;
    opt.command = argv[1];
    int i = 2;
    if (opt.command == "shard") {
        if (argc < 3) usage("shard needs a subcommand (plan|run|run-all|merge)");
        opt.subcommand = argv[2];
        i = 3;
    }
    if (opt.command == "trace") {
        if (argc < 3) usage("trace needs a subcommand (merge)");
        opt.subcommand = argv[2];
        i = 3;
    }
    for (; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + flag);
            return argv[++i];
        };
        // tail and trace merge take positional operands (a URL / log path,
        // trace files); everything else is flags only.
        if (!flag.empty() && flag[0] != '-' &&
            (opt.command == "tail" || opt.command == "trace")) {
            opt.inputs.push_back(flag);
            continue;
        }
        if (flag == "--model") opt.model = value();
        else if (flag == "--approach") opt.approach = value();
        else if (flag == "--fault-model") opt.fault_model = value();
        else if (flag == "--mbu-k")
            opt.mbu_k = parse_number<std::int64_t>(flag, value());
        else if (flag == "--clip") opt.clips.push_back(value());
        else if (flag == "--tmr") opt.tmrs.push_back(value());
        else if (flag == "--margin")
            opt.margin = parse_number<double>(flag, value());
        else if (flag == "--confidence")
            opt.confidence = parse_number<double>(flag, value());
        else if (flag == "--images")
            opt.images = parse_number<std::int64_t>(flag, value());
        else if (flag == "--policy") opt.policy = value();
        else if (flag == "--train") opt.train = true;
        else if (flag == "--dtype" || flag == "--format")
            opt.dtype = parse_dtype(value());
        else if (flag == "--seed")
            opt.seed = parse_number<std::uint64_t>(flag, value());
        else if (flag == "--threads")
            opt.threads = parse_number<std::size_t>(flag, value());
        else if (flag == "--kernels") opt.kernels = value();
        else if (flag == "--ensemble")
            opt.ensemble = parse_number<std::size_t>(flag, value());
        else if (flag == "--resume") opt.resume = true;
        else if (flag == "--journal") opt.journal = value();
        else if (flag == "--json") opt.json = true;
        else if (flag == "--out") opt.out = value();
        else if (flag == "--manifest") opt.manifest = value();
        else if (flag == "--shards")
            opt.shards = parse_number<std::uint32_t>(flag, value());
        else if (flag == "--shard")
            opt.shard = parse_number<std::uint32_t>(flag, value());
        else if (flag == "--jobs")
            opt.jobs = parse_number<std::size_t>(flag, value());
        else if (flag == "--metrics-out") opt.metrics_out = value();
        else if (flag == "--trace-out") opt.trace_out = value();
        else if (flag == "--perf-counters") opt.perf_counters = true;
        else if (flag == "--log-out") opt.log_out = value();
        else if (flag == "--serve-status") {
            const long port = parse_number<long>(flag, value());
            if (port < 0 || port > 65535)
                usage("--serve-status PORT must be in [0, 65535]");
            opt.serve_status = static_cast<int>(port);
        }
        else if (flag == "--state") opt.state_dir = value();
        else if (flag == "--workers")
            opt.workers = parse_number<std::size_t>(flag, value());
        else if (flag == "--port") {
            const long port = parse_number<long>(flag, value());
            if (port < 0 || port > 65535)
                usage("--port must be in [0, 65535]");
            opt.port = static_cast<int>(port);
        }
        else if (flag == "--trace-id") opt.trace_id = value();
        else if (flag == "--parent-span") opt.parent_span = value();
        else if (flag == "--no-fleet") opt.no_fleet = true;
        else if (flag == "--history") opt.history_in = value();
        else if (flag == "--log") opt.log_in = value();
        else if (flag == "--diff") {
            opt.diff_a = value();
            opt.diff_b = value();
        }
        else if (flag == "--matrix") {
            // Greedy: consume every following non-flag argument as a log.
            opt.matrix.push_back(value());
            while (i + 1 < argc && argv[i + 1][0] != '-')
                opt.matrix.push_back(argv[++i]);
        }
        else usage("unknown flag '" + flag + "'");
    }
    if (opt.serve_status >= 0 && opt.log_out.empty())
        usage("--serve-status needs --log-out PATH: /status is a view of "
              "that event log");
    // `statfi activation` is `statfi campaign --fault-model activation`, and
    // `statfi exhaustive` is `statfi campaign --approach exhaustive`.
    if (opt.command == "activation") opt.fault_model = "activation";
    if (opt.command == "exhaustive") opt.approach = "exhaustive";
    // Resolve the kernel backend before any fixture or worker exists; a
    // bad name (or "native" on a CPU without SIMD) is a usage error.
    if (!opt.kernels.empty()) {
        try {
            kernels::select(opt.kernels);
        } catch (const std::invalid_argument& e) {
            usage(e.what());
        }
    }
    return opt;
}

/// The stream human-facing output goes to: stderr under --json (stdout is
/// reserved for the document), stdout otherwise.
std::ostream& human(const Options& opt) {
    return opt.json ? std::cerr : std::cout;
}

/// Shared stderr progress heartbeat (exhaustive census and shard runs) —
/// the telemetry subsystem's stock sink, pinned to stderr so --json stdout
/// stays a single valid document.
core::ProgressFn stderr_progress() {
    return telemetry::ProgressReporter::stream_heartbeat(std::cerr);
}

/// The fleet trace identity this invocation was given: --trace-id /
/// --parent-span first, the STATFI_TRACE_ID / STATFI_PARENT_SPAN
/// environment second (how `shard run-all` and the service hand identity to
/// children without touching their argv contracts). The process's own root
/// span id is derived from (role, trace), so the daemon — which runs shards
/// in-process with role "shard:<k>" — and a subprocess shard correlate
/// identically. An invalid spelling is a usage error, never a silent drop.
telemetry::TraceContext trace_context_from(const Options& opt,
                                           const std::string& role) {
    std::string text = opt.trace_id;
    if (text.empty())
        if (const char* env = std::getenv("STATFI_TRACE_ID")) text = env;
    telemetry::TraceContext ctx;
    if (text.empty()) return ctx;
    if (!telemetry::parse_trace_id(text, ctx.trace_id))
        usage("--trace-id must be 16 lowercase hex digits, got '" + text +
              "'");
    std::string parent = opt.parent_span;
    if (parent.empty())
        if (const char* env = std::getenv("STATFI_PARENT_SPAN")) parent = env;
    if (!parent.empty() &&
        !telemetry::parse_trace_id(parent, ctx.parent_span_id))
        usage("--parent-span must be 16 lowercase hex digits, got '" +
              parent + "'");
    ctx.span_id = telemetry::derive_trace_id(role + ":" + text);
    return ctx;
}

/// The telemetry session this invocation asked for, or nullptr when no
/// telemetry flag was given (campaigns then pay one pointer compare per
/// fault and zero clock reads).
std::unique_ptr<telemetry::Session> make_session(
    const Options& opt, const telemetry::TraceContext& ctx = {}) {
    if (opt.metrics_out.empty() && opt.trace_out.empty() &&
        !opt.perf_counters && opt.log_out.empty())
        return nullptr;
    telemetry::SessionOptions options;
    // A live status server should answer /trace, so it implies tracing; a
    // fleet trace identity implies it too (the id travels in the trace).
    options.enable_trace =
        !opt.trace_out.empty() || opt.serve_status >= 0 || ctx.valid();
    options.enable_perf = opt.perf_counters;
    options.trace_context = ctx;
    auto session = std::make_unique<telemetry::Session>(options);
    if (opt.perf_counters && !session->perf_enabled())
        std::cerr << "statfi: hardware perf counters unavailable ("
                  << session->perf_probe().unavailable_reason()
                  << "); continuing without them\n";
    return session;
}

/// Everything the Observatory flags stand up around one campaign command:
/// the session, the attached event log (header already emitted), and the
/// HTTP status server reading both. Destruction order (server before
/// session) follows member order.
struct Observatory {
    std::unique_ptr<telemetry::Session> session;
    std::unique_ptr<telemetry::HttpServer> server;
    [[nodiscard]] telemetry::EventLog* events() const noexcept {
        return session ? session->events() : nullptr;
    }
};

Observatory open_observatory(const Options& opt,
                             const shard::CampaignRecipe& recipe,
                             const std::string& command, int shard_id = -1) {
    Observatory obs;
    // Role-based span derivation keeps CLI shards and the daemon's
    // in-process shards indistinguishable in a merged fleet trace.
    const std::string role =
        shard_id >= 0 ? "shard:" + std::to_string(shard_id) : command;
    obs.session = make_session(opt, trace_context_from(opt, role));
    if (!obs.session) return obs;
    if (!opt.log_out.empty()) {
        obs.session->open_event_log(opt.log_out);
        core::emit_campaign_header(*obs.session->events(),
                                   shard::campaign_header(recipe, command));
    }
    if (opt.serve_status >= 0) {
        telemetry::HttpServer::Options http;
        http.port = static_cast<std::uint16_t>(opt.serve_status);
        obs.server = std::make_unique<telemetry::HttpServer>(http);
        telemetry::add_campaign_routes(*obs.server, *obs.session);
        obs.server->start();
        std::cerr << "statfi: observatory on http://127.0.0.1:"
                  << obs.server->port() << "  (/status /metrics /trace)\n";
    }
    return obs;
}

/// Terminal bookkeeping: the campaign_end event, the telemetry artifacts
/// the flags requested (interrupted runs included — a partial campaign's
/// metrics are still worth having), and stderr notes pointing at each.
void close_observatory(const Options& opt, Observatory& obs, bool complete,
                       std::uint64_t injected, std::uint64_t critical,
                       double wall_seconds) {
    if (!obs.session) return;
    if (telemetry::EventLog* log = obs.session->events()) {
        core::emit_campaign_end(*log, complete, injected, critical,
                                wall_seconds);
        std::cerr << "statfi: event log written to " << opt.log_out << " ("
                  << log->events_written() << " events)\n";
    }
    obs.server.reset();
    if (!opt.metrics_out.empty()) {
        telemetry::export_metrics_file(*obs.session, opt.metrics_out);
        std::cerr << "statfi: metrics written to " << opt.metrics_out << "\n";
    }
    if (!opt.trace_out.empty()) {
        telemetry::export_trace_file(*obs.session, opt.trace_out);
        std::cerr << "statfi: trace written to " << opt.trace_out << "\n";
    }
}

/// The campaign recipe this invocation describes — the single definition the
/// direct commands AND the shard planner both build from, so a sharded run
/// can never quietly diverge from `statfi campaign` / `statfi exhaustive`.
shard::CampaignRecipe recipe_from(const Options& opt) {
    shard::RecipeInput input;
    shard::CampaignRecipe& recipe = input.recipe;
    recipe.model = opt.model;
    recipe.error_margin = opt.margin;
    recipe.confidence = opt.confidence;
    recipe.images = opt.images;
    recipe.train = opt.train;
    recipe.dtype = opt.dtype;
    recipe.seed = opt.seed;
    input.approach = opt.approach;
    input.fault_model = opt.fault_model;
    input.mbu_k = opt.mbu_k;
    input.policy = opt.policy;
    for (const std::string& raw : opt.clips) {
        // NODE:LO:HI, split from the right so LO may be negative.
        const auto last = raw.rfind(':');
        const auto mid =
            last == std::string::npos ? last : raw.rfind(':', last - 1);
        if (last == std::string::npos || mid == std::string::npos || mid == 0)
            usage("--clip expects NODE:LO:HI, got '" + raw + "'");
        fault::ClipRule rule;
        rule.node = raw.substr(0, mid);
        try {
            rule.lo = std::stof(raw.substr(mid + 1, last - mid - 1));
            rule.hi = std::stof(raw.substr(last + 1));
        } catch (const std::exception&) {
            usage("--clip expects numeric LO:HI, got '" + raw + "'");
        }
        recipe.mitigation.clips.push_back(std::move(rule));
    }
    for (const std::string& layer : opt.tmrs)
        recipe.mitigation.tmr.push_back(fault::TmrRule{layer});
    try {
        return shard::make_recipe(std::move(input));
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
}

/// The checkpoint journal of a direct campaign: --journal, else one named
/// by the campaign it holds (the daemon's recipe fingerprint covers every
/// recipe field), so two campaigns never share a default journal and every
/// spelling of one census resumes it.
std::string journal_path(const Options& opt,
                         const shard::CampaignRecipe& recipe) {
    if (!opt.journal.empty()) return opt.journal;
    const bool census =
        shard::campaign_kind(recipe) == shard::CampaignKind::Census;
    return shard::cache_directory() + "/cli_" +
           (census ? "exhaustive_" : "campaign_") +
           service::recipe_fingerprint(recipe) + ".sfij";
}

int cmd_models() {
    report::Table table({"Name", "Input", "Weights", "Description"});
    for (const auto& info : models::available_models()) {
        auto net = models::build_model(info.name);
        table.add_row({info.name, info.input_shape.to_string(),
                       report::fmt_u64(net.total_weight_count()),
                       info.description});
    }
    table.print(std::cout);
    return 0;
}

int cmd_profile(const Options& opt) {
    auto recipe = recipe_from(opt);
    auto fx = shard::build_fixture(recipe);
    core::DataAwareConfig config;
    config.dtype = recipe.dtype;
    if (recipe.dtype == fault::DataType::Int8)
        config.quant.scale =
            core::int8_analysis_scale(fx.net, fx.config.layer_quant);
    const auto crit = core::analyze_network(fx.net, config);
    report::Table table({"Bit", "f1 [%]", "Davg", "p(i)"});
    for (int bit = crit.bits() - 1; bit >= 0; --bit) {
        const auto i = static_cast<std::size_t>(bit);
        table.add_row({std::to_string(bit), report::fmt_percent(crit.f1[i], 1),
                       report::fmt_double(crit.davg[i], 6),
                       report::fmt_double(crit.p[i], 5)});
    }
    table.print(std::cout);
    return 0;
}

int cmd_plan(const Options& opt) {
    auto recipe = recipe_from(opt);
    // Planning needs the engine only for the data-aware weight analysis; a
    // single evaluation image keeps the golden pass negligible.
    recipe.images = 1;
    auto fx = shard::build_fixture(recipe);
    core::CampaignEngine engine(fx.net, fx.eval, fx.config);
    const auto plan = engine.plan(fx.universe, shard::campaign_spec(recipe));
    report::Table table({"Layer", "Name", "Population", "Planned FIs"});
    for (int l = 0; l < fx.universe.layer_count(); ++l)
        table.add_row({std::to_string(l), fx.universe.layer(l).name,
                       report::fmt_u64(fx.universe.layer_population(l)),
                       report::fmt_u64(plan.layer_sample_size(fx.universe, l))});
    table.add_row({"Total", "", report::fmt_u64(fx.universe.total()),
                   report::fmt_u64(plan.total_sample_size())});
    table.print(std::cout);
    std::cout << "\n" << core::to_string(plan.approach) << " @ e="
              << report::fmt_percent(recipe.error_margin, 1) << "%, conf="
              << report::fmt_percent(recipe.confidence, 0) << "%, dtype="
              << fault::to_string(recipe.dtype) << ": injects "
              << report::fmt_percent(
                     static_cast<double>(plan.total_sample_size()) /
                         static_cast<double>(fx.universe.total()),
                     2)
              << "% of the exhaustive census\n";
    return 0;
}

/// What a run adds to its summary in the --json document (a merge adds
/// zeros: it runs no engine).
struct RunFacts {
    double golden_accuracy = 0.0;
    bool interrupted = false;
    double wall_seconds = 0.0;
    std::uint64_t resumed = 0;
    std::uint64_t classified = 0;
};

/// The human tables of a summary: the network rate, then one row per layer.
void print_summary(std::ostream& out, const shard::CampaignSummary& s) {
    if (s.kind == shard::CampaignKind::Census) {
        out << "critical rate: " << report::fmt_percent(s.rate, 4) << "%\n\n";
        report::Table table({"Layer", "Name", "Critical [%]"});
        for (const auto& l : s.layers)
            table.add_row({std::to_string(l.layer), l.name,
                           report::fmt_percent(l.rate, 4)});
        table.print(out);
        return;
    }
    out << "\nnetwork critical-fault rate: " << report::fmt_percent(s.rate, 3)
        << "% +- " << report::fmt_percent(s.margin, 3) << "%\n\n";
    report::Table table({"Layer", "Name", "Critical [%]", "Margin [%]", "FIs"});
    for (const auto& l : s.layers)
        table.add_row({std::to_string(l.layer), l.name,
                       report::fmt_percent(l.rate, 3),
                       report::fmt_percent(l.margin, 3),
                       report::fmt_u64(l.injected)});
    table.print(out);
}

/// The result of a campaign or a merge: under --json one document on
/// stdout, the run's own fields and then the summary; else its tables.
void print_result(const Options& opt, const std::string& command,
                  const shard::CampaignSummary& summary, const RunFacts& run) {
    if (!opt.json) {
        print_summary(std::cout, summary);
        return;
    }
    report::JsonWriter json(std::cout);
    json.begin_object()
        .field("command", command)
        .field("kernels", kernels::active().name)
        .field("format", fault::to_string(summary.recipe.dtype))
        .field("golden_accuracy", run.golden_accuracy)
        .field("interrupted", run.interrupted)
        .field("wall_seconds", run.wall_seconds)
        .field("resumed", run.resumed)
        .field("classified", run.classified);
    if (!opt.out.empty()) json.field("out", opt.out);
    shard::write_summary_fields(json, summary);
    json.end_object();
    json.finish();
}

/// `statfi campaign`, `activation` and `exhaustive`: one recipe's census or
/// sample over its full item range, journaled and resumable.
int cmd_campaign(const Options& opt) {
    const auto recipe = recipe_from(opt);
    const bool census =
        shard::campaign_kind(recipe) == shard::CampaignKind::Census;
    if (!census && !opt.out.empty())
        usage("--out applies to censuses (--approach exhaustive) only");
    std::ostream& out = human(opt);
    Observatory obs = open_observatory(opt, recipe, opt.command);
    telemetry::Session* const session = obs.session.get();
    telemetry::EventLog* const log = obs.events();
    auto fx = shard::build_fixture(recipe, session);
    // Like --threads, --ensemble tunes throughput only: a fault's lane
    // never depends on the other lanes in its pass.
    if (opt.ensemble) fx.config.ensemble_width = opt.ensemble;
    // A census plans without the engine, so its log has the plan before
    // the golden pass; data-aware sample planning needs the engine.
    core::CampaignPlan plan;
    if (census) {
        plan = core::plan_exhaustive(fx.universe);
        if (log) core::emit_plan_event(*log, fx.universe, plan);
    }
    core::CampaignEngine engine(fx.net, fx.eval, fx.config, opt.threads,
                                session);
    if (census) {
        out << "exhaustive census: " << report::fmt_u64(fx.universe.total())
            << " faults x " << recipe.images << " image(s) on "
            << engine.worker_count()
            << " worker(s)  (Ctrl-C checkpoints; rerun with --resume)\n";
    } else {
        plan = engine.plan(fx.universe, shard::campaign_spec(recipe));
        if (log) core::emit_plan_event(*log, fx.universe, plan);
        out << core::to_string(plan.approach) << " campaign ("
            << recipe.fault_model.describe() << "): "
            << report::fmt_u64(plan.total_sample_size()) << " of "
            << report::fmt_u64(fx.universe.total()) << " faults, "
            << recipe.images << " image(s) per fault, policy " << opt.policy
            << "\n";
        if (!recipe.mitigation.empty())
            out << "mitigations: " << recipe.mitigation.describe() << "\n";
        out << "golden accuracy on evaluation set: "
            << report::fmt_percent(engine.golden_accuracy(), 1) << "%\n"
            << "running on " << engine.worker_count()
            << " worker(s)... (Ctrl-C checkpoints; rerun with --resume)\n";
    }

    core::DurabilityOptions durability;
    durability.cancel = &g_interrupt;
    durability.journal_path = journal_path(opt, recipe);
    // Without --resume any leftover journal is discarded so the run
    // restarts from scratch; with --resume a matching journal continues.
    if (!opt.resume) std::filesystem::remove(durability.journal_path);

    std::signal(SIGINT, handle_sigint);
    const auto start = std::chrono::steady_clock::now();
    const shard::RangeRun run = shard::run_range(
        recipe, plan, fx, engine, durability, stderr_progress());
    const RunFacts facts{
        engine.golden_accuracy(), !run.complete,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count(),
        run.resumed, run.classified};
    std::signal(SIGINT, SIG_DFL);
    close_observatory(opt, obs, run.complete, run.resumed + run.classified,
                      run.campaign.critical(), facts.wall_seconds);
    if (run.resumed > 0)
        out << "resumed " << report::fmt_u64(run.resumed)
            << " outcome(s) from the journal, classified "
            << report::fmt_u64(run.classified) << " more\n";
    if (!run.complete) {
        std::cerr << "\ninterrupted: " << report::fmt_u64(run.classified)
                  << " newly classified item(s) checkpointed to "
                  << durability.journal_path << "\nrerun with --resume to "
                  << "continue from the journal\n";
        // A partial sample still estimates; a partial census is no census.
        if (census) {
            if (opt.json) {
                report::JsonWriter json(std::cout);
                json.begin_object()
                    .field("command", opt.command)
                    .field("model", recipe.model)
                    .field("interrupted", true)
                    .field("resumed", run.resumed)
                    .field("classified", run.classified)
                    .field("journal", durability.journal_path)
                    .end_object();
                json.finish();
            }
            return 130;
        }
        out << "the estimates below cover the classified sample only\n";
    } else {
        std::filesystem::remove(durability.journal_path);
    }
    if (!opt.out.empty()) {
        run.campaign.outcomes.save(opt.out);
        out << "outcome table saved to " << opt.out << "\n";
    }
    out << "done in " << report::fmt_double(facts.wall_seconds, 1) << "s ("
        << report::fmt_u64(engine.inference_count()) << " faulty inferences, "
        << report::fmt_u64(engine.retired_count())
        << " of them retired early as golden)\n";
    print_result(opt, opt.command,
                 shard::summarize(recipe, fx.universe, run.campaign), facts);
    return run.complete ? 0 : 130;
}

// --- shard subcommands -----------------------------------------------------

int cmd_shard_plan(const Options& opt) {
    if (opt.manifest.empty()) usage("shard plan needs --manifest");
    if (opt.shards == 0) usage("shard plan needs --shards N");
    const auto recipe = recipe_from(opt);
    shard::ShardManifest manifest =
        shard::freeze_manifest(recipe, shard::build_fixture(recipe));
    manifest.shards = shard::partition_items(manifest.item_count, opt.shards);
    manifest.save(opt.manifest);

    std::ostream& out = human(opt);
    out << to_string(manifest.kind()) << " campaign ("
        << core::to_string(recipe.approach) << "): "
        << report::fmt_u64(manifest.item_count) << " item(s) across "
        << manifest.shards.size() << " shard(s)\n";
    report::Table table({"Shard", "Items", "Range"});
    for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
        const auto& r = manifest.shards[k];
        table.add_row({std::to_string(k), report::fmt_u64(r.size()),
                       "[" + std::to_string(r.begin) + ", " +
                           std::to_string(r.end) + ")"});
    }
    table.print(out);
    out << "manifest written to " << opt.manifest << "\n"
        << "next: statfi shard run --manifest " << opt.manifest
        << " --shard <k>   (or: shard run-all --jobs J)\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "shard-plan")
            .field("manifest", opt.manifest)
            .field("kind", to_string(manifest.kind()))
            .field("approach", core::to_string(recipe.approach))
            .field("item_count", manifest.item_count)
            .field("shards", static_cast<std::uint64_t>(manifest.shards.size()))
            .field("manifest_crc", static_cast<std::uint64_t>(manifest.crc()))
            .end_object();
        json.finish();
    }
    return 0;
}

int cmd_shard_run(const Options& opt) {
    if (opt.manifest.empty()) usage("shard run needs --manifest");
    const auto manifest = shard::ShardManifest::load(opt.manifest);
    std::ostream& out = human(opt);
    out << "shard " << opt.shard << "/" << manifest.shards.size() << " of "
        << to_string(manifest.kind()) << " campaign (" << manifest.recipe.model
        << ", " << report::fmt_u64(manifest.item_count)
        << " items total)  (Ctrl-C checkpoints; rerun with --resume)\n";

    Observatory obs = open_observatory(opt, manifest.recipe, "shard-run",
                                       static_cast<int>(opt.shard));
    telemetry::Session* const session = obs.session.get();
    shard::ShardRunOptions run_options;
    run_options.shard = opt.shard;
    run_options.resume = opt.resume;
    run_options.threads = opt.threads;
    run_options.cancel = &g_interrupt;
    run_options.progress = stderr_progress();
    run_options.telemetry = session;

    std::signal(SIGINT, handle_sigint);
    const auto shard_start = std::chrono::steady_clock::now();
    const auto run = shard::run_shard(manifest, opt.manifest, run_options);
    const double shard_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      shard_start)
            .count();
    std::signal(SIGINT, SIG_DFL);
    close_observatory(opt, obs, run.complete, run.resumed + run.classified,
                      run.critical, shard_wall);

    if (!run.complete) {
        std::cerr << "\ninterrupted: " << report::fmt_u64(run.classified)
                  << " newly classified item(s) checkpointed to "
                  << run.journal_path
                  << "\nrerun with --resume to continue\n";
        return 130;
    }
    if (run.resumed > 0)
        out << "resumed " << report::fmt_u64(run.resumed)
            << " outcome(s) from the journal, classified "
            << report::fmt_u64(run.classified) << " more\n";
    out << "shard " << opt.shard << " complete: result written to "
        << run.result_path << "\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "shard-run")
            .field("manifest", opt.manifest)
            .field("shard", static_cast<std::uint64_t>(opt.shard))
            .field("resumed", run.resumed)
            .field("classified", run.classified)
            .field("critical", run.critical)
            .field("result", run.result_path)
            .end_object();
        json.finish();
    }
    return 0;
}

int cmd_shard_run_all(const Options& opt) {
    if (opt.manifest.empty()) usage("shard run-all needs --manifest");
    const auto manifest = shard::ShardManifest::load(opt.manifest);

    shard::DriveOptions drive;
    drive.jobs = opt.jobs;
    drive.threads = opt.threads;
    // Spawn the very binary that is running, so manifest fingerprints can
    // only mismatch on real divergence (data/seed), never on a stale PATH.
    std::error_code ec;
    const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
    drive.statfi_binary = ec ? g_argv0 : self.string();

    // Fleet trace identity: join the caller's trace when one was handed
    // down, else derive one from the manifest fingerprint — the same
    // campaign rerun correlates the same way, and every child shard is
    // spawned carrying it.
    telemetry::TraceContext ctx = trace_context_from(opt, "driver");
    if (!ctx.valid()) {
        ctx.trace_id = telemetry::derive_trace_id(
            "manifest:" + manifest.fingerprint.describe());
        ctx.span_id = telemetry::derive_trace_id(
            "driver:" + telemetry::format_trace_id(ctx.trace_id));
    }
    drive.trace = ctx;
    std::string trace_dir;
    if (!opt.trace_out.empty()) {
        const auto parent = std::filesystem::path(opt.manifest).parent_path();
        trace_dir = parent.empty() ? std::string(".") : parent.string();
        drive.trace_dir = trace_dir;
    }
    telemetry::TraceRecorder driver_trace;
    driver_trace.set_context(ctx);
    telemetry::Span drive_span(&driver_trace, "shard_run_all");

    const auto drive_report =
        shard::run_all_shards(manifest, opt.manifest, drive);
    drive_span.close();

    // Stitch the driver's own trace with every child trace that exists —
    // a failed shard's missing file degrades the merge, never the drive.
    if (!opt.trace_out.empty()) {
        try {
            const std::size_t processes = shard::merge_fleet_trace(
                driver_trace, "driver", trace_dir,
                static_cast<std::uint32_t>(manifest.shards.size()),
                opt.trace_out);
            std::cerr << "statfi: merged fleet trace written to "
                      << opt.trace_out << " (" << processes
                      << " process(es), trace "
                      << telemetry::format_trace_id(ctx.trace_id) << ")\n";
        } catch (const std::exception& e) {
            std::cerr << "statfi: fleet trace merge failed: " << e.what()
                      << "\n";
        }
    }
    std::ostream& out = human(opt);
    report::Table table({"Shard", "Status"});
    for (const auto& s : drive_report.shards)
        table.add_row({std::to_string(s.shard), s.describe()});
    table.print(out);
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "shard-run-all")
            .field("manifest", opt.manifest)
            .field("trace_id", telemetry::format_trace_id(ctx.trace_id))
            .field("ok", drive_report.ok())
            .key("shards")
            .begin_array();
        for (const auto& s : drive_report.shards)
            json.begin_object()
                .field("shard", static_cast<std::uint64_t>(s.shard))
                .field("exit_code", static_cast<std::int64_t>(s.exit_code))
                .field("skipped", s.skipped)
                .field("status", s.describe())
                .end_object();
        json.end_array().end_object();
        json.finish();
    }
    if (!drive_report.ok()) {
        for (const auto& s : drive_report.shards)
            if (!s.skipped && s.exit_code != 0)
                std::cerr << "statfi: shard " << s.shard << " " << s.describe()
                          << "\n";
        std::cerr << "statfi: rerun `shard run-all` to retry (completed "
                     "shards are skipped)\n";
        // Surface the first child's exit code so wrappers (CI, the service)
        // can distinguish interrupt (130) from exec failure (127) from a
        // plain campaign error.
        return drive_report.first_failure();
    }
    out << "all " << drive_report.shards.size()
        << " shard(s) complete; next: statfi shard merge --manifest "
        << opt.manifest << "\n";
    return 0;
}

int cmd_shard_merge(const Options& opt) {
    if (opt.manifest.empty()) usage("shard merge needs --manifest");
    const auto manifest = shard::ShardManifest::load(opt.manifest);
    const bool census = manifest.kind() == shard::CampaignKind::Census;
    if (!census && !opt.out.empty())
        usage("--out applies to census merges only");
    Observatory obs = open_observatory(opt, manifest.recipe, "shard-merge");
    telemetry::Session* const session = obs.session.get();
    const auto merge_start = std::chrono::steady_clock::now();
    const auto merged = shard::merge_shards(manifest, opt.manifest, session);

    // Human-facing readouts (and the merged campaign's strata events) need
    // layer names/index ranges — rebuild the fixture (the merge itself
    // never needed it).
    auto fx = shard::build_fixture(manifest.recipe, session);
    if (telemetry::EventLog* log = obs.events()) {
        shard::emit_manifest_plan(*log, manifest, fx.universe);
        shard::emit_merged_strata(*log, manifest, fx.universe, merged);
    }
    close_observatory(opt, obs, true, manifest.item_count, merged.critical(),
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - merge_start)
                          .count());
    std::ostream& out = human(opt);
    if (!opt.out.empty()) {
        merged.outcomes.save(opt.out);
        out << "merged outcome table saved to " << opt.out << "\n";
    }
    print_result(opt, "shard-merge",
                 shard::summarize(manifest.recipe, fx.universe, merged), {});
    out << "merged " << manifest.shards.size() << " shard(s), "
        << report::fmt_u64(manifest.item_count) << " item(s)\n";
    return 0;
}

// --- report ----------------------------------------------------------------

void write_text_file(const std::string& path, const std::string& text) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("report: cannot write " + path);
    file << text;
    if (!file) throw std::runtime_error("report: write failed for " + path);
}

/// Merge a completed shard fleet and synthesize the event log a direct run
/// would have produced (header, plan, final strata, campaign_end) — through
/// the very same emitters — so the renderer has exactly one input format.
report::ObservatoryModel model_from_manifest(const Options& opt) {
    const auto manifest = shard::ShardManifest::load(opt.manifest);
    const auto merge_start = std::chrono::steady_clock::now();
    const auto merged = shard::merge_shards(manifest, opt.manifest, nullptr);
    auto fx = shard::build_fixture(manifest.recipe);

    std::ostringstream buffer;
    telemetry::EventLog log(buffer);
    core::emit_campaign_header(
        log, shard::campaign_header(manifest.recipe, "shard-merge"));
    shard::emit_manifest_plan(log, manifest, fx.universe);
    shard::emit_merged_strata(log, manifest, fx.universe, merged);
    core::emit_campaign_end(log, true, manifest.item_count, merged.critical(),
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - merge_start)
                                .count());
    return report::model_from_events(report::parse_json_lines(buffer.str()));
}

int cmd_report_diff(const Options& opt) {
    const auto a = report::load_event_log(opt.diff_a);
    const auto b = report::load_event_log(opt.diff_b);
    const auto diff = report::diff_observatories(a, b);
    std::ostream& out = human(opt);
    if (!opt.out.empty()) {
        write_text_file(opt.out,
                        report::render_diff_html(
                            a, b, diff, a.model + " — A/B stratum diff"));
        out << "diff report written to " << opt.out << "\n";
    }
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "report-diff")
            .field("a", opt.diff_a)
            .field("b", opt.diff_b)
            .field("compared", diff.compared)
            .field("a_only", diff.a_only)
            .field("b_only", diff.b_only)
            .field("flagged",
                   static_cast<std::uint64_t>(diff.flagged.size()));
        json.key("strata").begin_array();
        for (const auto& f : diff.flagged)
            json.begin_object()
                .field("layer", f.layer)
                .field("bit", f.bit)
                .field("a_p", f.a_p)
                .field("a_lo", f.a_lo)
                .field("a_hi", f.a_hi)
                .field("b_p", f.b_p)
                .field("b_lo", f.b_lo)
                .field("b_hi", f.b_hi)
                .field("regression", f.regression)
                .end_object();
        json.end_array().end_object();
        json.finish();
    } else {
        out << "compared " << diff.compared << " strata ("
            << diff.a_only << " only in A, " << diff.b_only
            << " only in B): " << diff.flagged.size()
            << " with disjoint confidence intervals\n";
        if (!diff.flagged.empty()) {
            report::Table table({"Layer", "Bit", "A p(hat) [CI]",
                                 "B p(hat) [CI]", "Direction"});
            for (const auto& f : diff.flagged)
                table.add_row(
                    {std::to_string(f.layer), std::to_string(f.bit),
                     report::fmt_double(f.a_p, 5) + " [" +
                         report::fmt_double(f.a_lo, 5) + ", " +
                         report::fmt_double(f.a_hi, 5) + "]",
                     report::fmt_double(f.b_p, 5) + " [" +
                         report::fmt_double(f.b_lo, 5) + ", " +
                         report::fmt_double(f.b_hi, 5) + "]",
                     f.regression ? "B higher" : "B lower"});
            table.print(out);
        }
    }
    // Exit 0 when the campaigns statistically agree, 3 when strata moved —
    // so CI can gate on a reliability regression without parsing output.
    return diff.flagged.empty() ? 0 : 3;
}

/// `report --matrix A B ...`: N campaign logs side by side. Same-format
/// disagreement (disjoint Wilson CIs) is a divergence and exits 3, like
/// --diff; cross-format differences are the point of the view and only
/// highlighted.
int cmd_report_matrix(const Options& opt) {
    if (opt.matrix.size() < 2)
        usage("report --matrix needs at least two event logs");
    std::vector<report::ObservatoryModel> logs;
    logs.reserve(opt.matrix.size());
    for (const auto& path : opt.matrix)
        logs.push_back(report::load_event_log(path));
    const auto matrix = report::matrix_compare(logs);
    const std::string html = report::render_matrix_html(
        logs, opt.matrix, matrix, "statfi format matrix");
    const std::string out_path =
        opt.out.empty() ? opt.matrix.front() + ".matrix.html" : opt.out;
    write_text_file(out_path, html);

    std::ostream& out = human(opt);
    out << "matrix report written to " << out_path << " (" << logs.size()
        << " logs, " << matrix.pairs.size() << " pairs, "
        << matrix.divergent() << " divergent strata)\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "report-matrix")
            .field("out", out_path)
            .field("logs", static_cast<std::uint64_t>(logs.size()))
            .field("pairs", static_cast<std::uint64_t>(matrix.pairs.size()))
            .field("divergent", matrix.divergent());
        json.key("formats").begin_array();
        for (const auto& m : logs) json.value(m.format);
        json.end_array().end_object();
        json.finish();
    }
    return matrix.divergent() == 0 ? 0 : 3;
}

/// `report --history metrics.tsf`: the fleet plane's durable metrics ring
/// (what the sampler persists and /campaigns/<id>/history serves) rendered
/// as one sparkline row per series.
int cmd_report_history(const Options& opt) {
    const telemetry::HistoryRing ring =
        telemetry::HistoryRing::load(opt.history_in);
    std::vector<double> seconds;
    std::vector<report::HistorySeries> series;
    for (const std::string& name : ring.series())
        series.push_back({name, {}});
    for (const telemetry::HistorySample& s : ring.samples()) {
        seconds.push_back(s.seconds);
        for (std::size_t i = 0; i < series.size(); ++i)
            series[i].values.push_back(s.values[i]);
    }
    const std::string out_path =
        opt.out.empty() ? opt.history_in + ".html" : opt.out;
    write_text_file(out_path,
                    report::render_history_html(seconds, series,
                                                "statfi metrics history"));
    std::ostream& out = human(opt);
    out << "history report written to " << out_path << " ("
        << seconds.size() << " sample(s), " << series.size()
        << " series)\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "report-history")
            .field("source", opt.history_in)
            .field("out", out_path)
            .field("samples", static_cast<std::uint64_t>(seconds.size()))
            .field("series", static_cast<std::uint64_t>(series.size()))
            .field("total", ring.total_appended())
            .end_object();
        json.finish();
    }
    return 0;
}

int cmd_report(const Options& opt) {
    const int sources = (opt.log_in.empty() ? 0 : 1) +
                        (opt.manifest.empty() ? 0 : 1) +
                        (opt.diff_a.empty() ? 0 : 1) +
                        (opt.matrix.empty() ? 0 : 1) +
                        (opt.history_in.empty() ? 0 : 1);
    if (sources != 1)
        usage("report needs exactly one of --log PATH, --manifest PATH, "
              "--diff A B, --matrix LOG..., or --history PATH");
    if (!opt.diff_a.empty()) return cmd_report_diff(opt);
    if (!opt.matrix.empty()) return cmd_report_matrix(opt);
    if (!opt.history_in.empty()) return cmd_report_history(opt);

    const std::string source =
        opt.log_in.empty() ? opt.manifest : opt.log_in;
    const report::ObservatoryModel model =
        opt.log_in.empty() ? model_from_manifest(opt)
                           : report::load_event_log(opt.log_in);
    const std::string html = report::render_observatory_html(
        model, model.model + " " + model.command + " — statfi observatory");
    const std::string out_path =
        opt.out.empty() ? source + ".html" : opt.out;
    write_text_file(out_path, html);

    std::ostream& out = human(opt);
    out << "observatory report written to " << out_path << " ("
        << model.strata.size() << " strata, " << model.event_count
        << " events)\n";
    if (!model.finished)
        out << "note: the log has no campaign_end event — the report covers "
               "an interrupted or still-running campaign\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "report")
            .field("source", source)
            .field("out", out_path)
            .field("strata",
                   static_cast<std::uint64_t>(model.strata.size()))
            .field("events", model.event_count)
            .field("finished", model.finished)
            .field("complete", model.complete)
            .end_object();
        json.finish();
    }
    return 0;
}

// --- fleet tools: trace merge + live tail ----------------------------------

/// `statfi trace merge A.json B.json ... --out merged.json`: stitch the
/// per-process Chrome traces one campaign's processes wrote into a single
/// correlated timeline (one pid per input). Mismatched trace ids are an
/// error — merging unrelated campaigns would fabricate correlation.
int cmd_trace(const Options& opt) {
    if (opt.subcommand != "merge")
        usage("unknown trace subcommand '" + opt.subcommand +
              "' (expected: merge)");
    if (opt.out.empty()) usage("trace merge needs --out PATH");
    if (opt.inputs.size() < 2)
        usage("trace merge needs at least two trace files");
    std::vector<telemetry::TraceMergeInput> inputs;
    for (const std::string& path : opt.inputs) {
        std::string text;
        if (!io::read_file(path, text))
            throw std::runtime_error("trace merge: cannot read " + path);
        inputs.push_back({std::filesystem::path(path).filename().string(),
                          std::move(text)});
    }
    const std::string merged = telemetry::merge_chrome_traces(inputs);
    io::write_file_atomic(opt.out, [&](std::ostream& o) { o << merged; });
    std::ostream& out = human(opt);
    out << "merged trace written to " << opt.out << " (" << inputs.size()
        << " process(es))\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "trace-merge")
            .field("out", opt.out)
            .field("inputs", static_cast<std::uint64_t>(inputs.size()))
            .end_object();
        json.finish();
    }
    return 0;
}

/// Render one statfi.eventlog.v1 line for `statfi tail`. The tail is a
/// lens, not a gate: unknown event types are quietly skipped and an
/// unparseable line passes through raw, so a newer daemon never breaks an
/// older tail.
void render_event_line(std::ostream& out, std::string line) {
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n'))
        line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) return;
    report::JsonValue e;
    try {
        e = report::parse_json(line);
    } catch (const std::exception&) {
        out << line << "\n";
        return;
    }
    const std::string type = e.get_str("type");
    if (type == "campaign_header") {
        out << "campaign: " << e.get_str("model") << " · "
            << e.get_str("approach") << " · " << e.get_str("fault_model")
            << " · seed " << e.get_uint("seed");
        if (const std::string trace = e.get_str("trace_id"); !trace.empty())
            out << " · trace " << trace;
        out << "\n";
    } else if (type == "plan") {
        out << "plan: " << report::fmt_u64(e.get_uint("planned")) << " of "
            << report::fmt_u64(e.get_uint("universe")) << " faults, "
            << e.get_uint("strata") << " strata\n";
    } else if (type == "shard_begin") {
        out << "shard " << e.get_uint("shard") << ": items ["
            << e.get_uint("range_begin") << ", " << e.get_uint("range_end")
            << ")\n";
    } else if (type == "shard_end") {
        out << "shard " << e.get_uint("shard")
            << (e.get_bool("complete", true) ? ": complete ("
                                             : ": interrupted (")
            << e.get_uint("classified") << " classified, "
            << e.get_uint("resumed") << " resumed)\n";
    } else if (type == "stratum_update") {
        out << "  stratum " << e.get_uint("stratum") << " (layer "
            << e.get_int("layer", -1) << ", bit " << e.get_int("bit", -1)
            << "): p(hat)=" << report::fmt_double(e.get_num("p_hat"), 5)
            << " wilson[" << report::fmt_double(e.get_num("wilson_lo"), 5)
            << ", " << report::fmt_double(e.get_num("wilson_hi", 1.0), 5)
            << "] " << e.get_uint("done") << "/" << e.get_uint("planned")
            << "\n";
    } else if (type == "campaign_end") {
        out << "campaign " << e.get_str("outcome") << ": "
            << report::fmt_u64(e.get_uint("injected")) << " injected, "
            << report::fmt_u64(e.get_uint("critical")) << " critical in "
            << report::fmt_double(e.get_num("wall_seconds"), 1) << "s\n";
    }
    // Phase/resume chatter stays out of the tail on purpose.
}

/// Follow a daemon event stream over a minimal blocking HTTP/1.1 client.
/// Loopback numeric-IPv4 only (the daemon binds nothing else); handles both
/// chunked (?follow=1) and plain responses; renders lines as they arrive.
int tail_url(const Options& opt, const std::string& url) {
    const std::string rest = url.substr(7);  // past "http://"
    const auto slash = rest.find('/');
    std::string hostport =
        slash == std::string::npos ? rest : rest.substr(0, slash);
    std::string path = slash == std::string::npos ? "/" : rest.substr(slash);
    const auto colon = hostport.rfind(':');
    if (colon == std::string::npos)
        usage("tail URL needs an explicit port, e.g. "
              "http://127.0.0.1:8080/campaigns/1/events");
    std::string host = hostport.substr(0, colon);
    const long port = std::strtol(hostport.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) usage("tail URL port must be in (0, 65535]");
    if (host == "localhost") host = "127.0.0.1";
    // Following is the command's whole point — opt the stream into it
    // unless the caller pinned their own query.
    if (path.find('?') == std::string::npos) path += "?follow=1";

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("tail: cannot open a socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("tail: '" + host +
                                 "' is not a numeric IPv4 address (the "
                                 "daemon serves loopback only)");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("tail: cannot connect to " + hostport);
    }
    const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " +
                                hostport + "\r\nConnection: close\r\n\r\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, 0);
        if (n <= 0) {
            ::close(fd);
            throw std::runtime_error("tail: send failed");
        }
        sent += static_cast<std::size_t>(n);
    }

    std::ostream& out = human(opt);
    std::string buffer;   // raw bytes not yet consumed
    std::string pending;  // decoded body bytes not yet a full line
    auto render_decoded = [&](std::string_view text) {
        pending.append(text);
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            render_event_line(out, pending.substr(0, nl));
            pending.erase(0, nl + 1);
        }
    };
    bool headers_done = false, chunked = false, terminated = false;
    char io_buf[4096];
    while (!terminated) {
        const ssize_t n = ::recv(fd, io_buf, sizeof(io_buf), 0);
        if (n <= 0) break;
        buffer.append(io_buf, static_cast<std::size_t>(n));
        if (!headers_done) {
            const auto end = buffer.find("\r\n\r\n");
            if (end == std::string::npos) continue;
            std::string head = buffer.substr(0, end);
            buffer.erase(0, end + 4);
            if (head.compare(0, 12, "HTTP/1.1 200") != 0) {
                ::close(fd);
                throw std::runtime_error(
                    "tail: server answered '" +
                    head.substr(0, head.find('\r')) + "'");
            }
            for (char& c : head)
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            chunked =
                head.find("transfer-encoding: chunked") != std::string::npos;
            headers_done = true;
        }
        if (!chunked) {
            render_decoded(buffer);
            buffer.clear();
            continue;
        }
        // Decode every complete chunk the buffer holds; a partial one
        // waits for the next recv.
        for (;;) {
            const auto crlf = buffer.find("\r\n");
            if (crlf == std::string::npos) break;
            const std::size_t size =
                std::strtoul(buffer.c_str(), nullptr, 16);
            if (size == 0) {  // terminating chunk: the stream is over
                terminated = true;
                break;
            }
            if (buffer.size() < crlf + 2 + size + 2) break;
            render_decoded(std::string_view(buffer).substr(crlf + 2, size));
            buffer.erase(0, crlf + 2 + size + 2);
        }
    }
    ::close(fd);
    if (!pending.empty()) render_event_line(out, pending);
    return 0;
}

/// `statfi tail <http://...|LOG>`: follow a live daemon stream, or render a
/// local event log through the same lens.
int cmd_tail(const Options& opt) {
    if (opt.inputs.size() != 1)
        usage("tail needs exactly one URL or event-log path");
    const std::string& target = opt.inputs.front();
    if (target.rfind("http://", 0) == 0) return tail_url(opt, target);
    std::ifstream file(target);
    if (!file) throw std::runtime_error("tail: cannot open " + target);
    std::ostream& out = human(opt);
    std::string line;
    while (std::getline(file, line)) render_event_line(out, line);
    return 0;
}

/// `statfi version`: build identity plus the resolved compute backend —
/// what "which kernels did this binary actually run" questions are answered
/// with (CI diffs the --kernels=generic vs --kernels=native reports).
int cmd_version(const Options& opt) {
    constexpr const char* kVersion = "1.0.0";  // keep in step with CMake project()
    const kernels::CpuFeatures cpu = kernels::detect_cpu();
    const kernels::Kernels* native = kernels::native_kernels();
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "version")
            .field("version", kVersion)
            .field("kernels", kernels::active().name)
            .field("kernels_available",
                   native ? std::string("generic,") + native->name
                          : std::string("generic"))
            .field("cpu", cpu.describe());
        // Number-format capability list: drivers probe this before
        // submitting a recipe with "format" to an older daemon/CLI.
        json.key("formats").begin_array();
        for (int i = 0; i < formats::kFormatCount; ++i)
            json.value(formats::all_formats()[i].name);
        json.end_array().end_object();
        json.finish();
        return 0;
    }
    std::cout << "statfi " << kVersion << "\n"
              << "kernels: " << kernels::active().name << " (available: generic"
              << (native ? std::string(",") + native->name : std::string())
              << "; cpu: " << cpu.describe() << ")\n"
              << "formats: " << formats::format_names() << "\n";
    return 0;
}

int cmd_serve(const Options& opt) {
    if (opt.state_dir.empty()) usage("serve needs --state DIR");
    service::DaemonOptions options;
    options.port = opt.port;
    options.workers = opt.workers == 0 ? 1 : opt.workers;
    options.state_dir = opt.state_dir;
    options.default_shards = opt.shards == 0 ? 2 : opt.shards;
    options.engine_threads = opt.threads;
    options.log_path = opt.log_out;
    options.fleet = !opt.no_fleet;

    service::ServiceDaemon daemon(options);
    // Both SIGINT (operator Ctrl-C) and SIGTERM (systemd/CI teardown) mean
    // the same thing: checkpoint in-flight shards and persist the queue so a
    // restarted daemon resumes exactly where this one stopped.
    std::signal(SIGINT, handle_sigint);
    std::signal(SIGTERM, handle_sigint);
    daemon.start();
    std::cerr << "statfi service listening on http://127.0.0.1:"
              << daemon.port() << " (" << options.workers
              << " worker(s), state in " << options.state_dir
              << ")\nPOST a recipe to /campaigns; Ctrl-C or SIGTERM "
                 "checkpoints and exits\n";
    if (opt.json) {
        report::JsonWriter json(std::cout);
        json.begin_object()
            .field("command", "serve")
            .field("port", static_cast<std::int64_t>(daemon.port()))
            .field("state", options.state_dir)
            .field("workers", static_cast<std::uint64_t>(options.workers))
            .end_object();
        json.finish();
        std::cout.flush();
    }
    while (!g_interrupt.stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::cerr << "statfi service shutting down: checkpointing in-flight "
                 "shards and persisting the queue\n";
    daemon.stop();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    return 0;
}

int cmd_shard(const Options& opt) {
    if (opt.subcommand == "plan") return cmd_shard_plan(opt);
    if (opt.subcommand == "run") return cmd_shard_run(opt);
    if (opt.subcommand == "run-all") return cmd_shard_run_all(opt);
    if (opt.subcommand == "merge") return cmd_shard_merge(opt);
    usage("unknown shard subcommand '" + opt.subcommand + "'");
}

}  // namespace

int main(int argc, char** argv) {
    g_argv0 = argv[0];
    try {
        const Options opt = parse(argc, argv);
        if (opt.command == "models") return cmd_models();
        if (opt.command == "profile") return cmd_profile(opt);
        if (opt.command == "plan") return cmd_plan(opt);
        // `activation` and `exhaustive` are sugar for `campaign
        // --fault-model activation` and `campaign --approach exhaustive`.
        if (opt.command == "campaign" || opt.command == "activation" ||
            opt.command == "exhaustive")
            return cmd_campaign(opt);
        if (opt.command == "shard") return cmd_shard(opt);
        if (opt.command == "serve") return cmd_serve(opt);
        if (opt.command == "report") return cmd_report(opt);
        if (opt.command == "trace") return cmd_trace(opt);
        if (opt.command == "tail") return cmd_tail(opt);
        if (opt.command == "version") return cmd_version(opt);
        usage("unknown command '" + opt.command + "'");
    } catch (const std::exception& e) {
        std::cerr << "statfi: " << e.what() << "\n";
        return 1;
    }
}
