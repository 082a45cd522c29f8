// statfi_probe — the in-process half of the StatFI benchmark (run.py is the
// other half). It calls the library's public entry points on one workload
// recipe and reports what each layer costs, plus a correctness oracle that
// shares no code with the fast path it checks.
//
//   statfi_probe build-info
//       {"optimized", "ndebug", "sanitizers"} of this build — run.py refuses
//       to time a debug or sanitizer build.
//   statfi_probe check  --recipe JSON --cli-json PATH [--table PATH]
//                       --check-seed N
//       Spot check of one CLI run: census — the saved outcome table's
//       layer rates equal the CLI's and 512 seeded entries equal the
//       reference; sample — one seeded layer re-evaluated through
//       ClassificationCore::evaluate_group gives the CLI's estimate, and 32
//       of its items equal the reference.
//   statfi_probe ladder --recipe JSON --cli-json PATH [--table PATH]
//                       --check-seed N --classify-s SECONDS --spans PATH
//       The traced run's per-layer metrics (kernels, nn, fault, stats,
//       core) on the recipe's own fixture, the full check (every item's
//       evaluate_group outcome against the CLI, 256 or 512 against the
//       reference), and the probe's spans as JSON for run.py's trace.
//
// The recipe is the service's wire format (service::parse_submission), so
// the CLI flags, the daemon's POST body and the probe all describe one
// campaign. Timestamps are steady_clock microseconds, the same clock as
// Python's time.monotonic() on Linux, so run.py can merge the spans.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "core/engine.hpp"
#include "core/estimator.hpp"
#include "fault/injector.hpp"
#include "io/atomic_file.hpp"
#include "kernels/registry.hpp"
#include "nn/conv.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "service/recipe_json.hpp"
#include "shard/fixture.hpp"

namespace {

using namespace statfi;
using Clock = std::chrono::steady_clock;

/// Lanes per blocked pass: the engine's default ensemble width.
constexpr std::size_t kLanes = 8;
/// Per-node and per-GEMM spans are kept for this many probe calls; later
/// calls are only counted, so the trace stays small.
constexpr std::size_t kSpanCalls = 64;

double now_us() {
    return std::chrono::duration<double, std::micro>(
               Clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// --quick 1 (smoke runs): every timing is a single call.
bool g_quick = false;

/// Median seconds per call of @p fn: one warm-up call, then at least
/// @p min_reps timed calls and at least @p min_seconds of timed work.
template <typename Fn>
double time_call(Fn&& fn, int min_reps = 3, double min_seconds = 0.005) {
    if (g_quick) {
        min_reps = 1;
        min_seconds = 0.0;
    } else {
        fn();
    }
    std::vector<double> samples;
    double total = 0.0;
    while (static_cast<int>(samples.size()) < min_reps || total < min_seconds) {
        const auto t0 = Clock::now();
        fn();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        samples.push_back(s);
        total += s;
    }
    return median(std::move(samples));
}

// --- spans ------------------------------------------------------------------

/// In-memory spans, written once when the probe ends.
class SpanLog {
public:
    int open(const std::string& name) {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back(
            {name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(id);
        return id;
    }
    void close(int id) {
        spans_[static_cast<std::size_t>(id)].end = now_us();
        if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    }
    /// A finished span under the currently open one.
    void add(const std::string& name, double start, double end) {
        spans_.push_back(
            {name, start, end, stack_.empty() ? -1 : stack_.back()});
    }
    void write(const std::string& path) const {
        io::write_file_atomic(path, [&](std::ostream& out) {
            report::JsonWriter json(out, 0);
            json.begin_array();
            for (const Span& s : spans_)
                json.begin_object()
                    .field("name", s.name)
                    .field("start_us", s.start)
                    .field("end_us", s.end)
                    .field("parent", static_cast<std::int64_t>(s.parent))
                    .end_object();
            json.end_array();
            json.finish();
        });
    }

private:
    struct Span {
        std::string name;
        double start = 0.0, end = 0.0;
        int parent = -1;
    };
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// RAII span; a null log records nothing.
class Scope {
public:
    Scope(SpanLog* log, const std::string& name)
        : log_(log), id_(log ? log->open(name) : -1) {}
    ~Scope() {
        if (log_) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    SpanLog* log_;
    int id_;
};

// --- arguments and inputs ---------------------------------------------------

struct Args {
    std::string command;
    std::map<std::string, std::string> values;

    Args(int argc, char** argv) {
        if (argc < 2) throw std::invalid_argument("missing command");
        command = argv[1];
        for (int i = 2; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
                throw std::invalid_argument("expected --flag VALUE, got '" +
                                            flag + "'");
            values[flag.substr(2)] = argv[++i];
        }
    }
    [[nodiscard]] const std::string& need(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end())
            throw std::invalid_argument("missing --" + key);
        return it->second;
    }
};

report::JsonValue load_json(const std::string& path) {
    std::string text;
    if (!io::read_file(path, text))
        throw std::runtime_error("cannot read " + path);
    return report::parse_json(text);
}

// --- the reference oracle ---------------------------------------------------

/// Top-1 with the engine's finiteness rule: a non-finite winning logit is
/// no prediction at all (-1).
int predict(const Tensor& logits) {
    const int best = nn::argmax_row(logits, 0);
    return std::isfinite(logits[static_cast<std::size_t>(best)]) ? best : -1;
}

/// Per-fault reference classification under the golden-mismatch policy:
/// WeightInjector + Network::forward_from on per-image golden activations,
/// one fault and one image at a time — no ensemble lanes, no row cache, no
/// batched golden pass.
class Reference {
public:
    Reference(const shard::CampaignFixture& fx,
              const shard::CampaignRecipe& recipe)
        : net_(fx.net.clone()),
          injector_(net_, fx.config.dtype, fx.config.layer_quant) {
        if (recipe.policy != core::ClassificationPolicy::GoldenMismatch ||
            !recipe.mitigation.empty())
            throw std::invalid_argument(
                "the reference covers the golden-mismatch policy without "
                "mitigations only");
        for (std::int64_t i = 0; i < fx.eval.size(); ++i) {
            images_.push_back(fx.eval.image(i));
            acts_.emplace_back();
            net_.forward_all(images_.back(), acts_.back());
            preds_.push_back(predict(acts_.back().back()));
        }
    }

    core::FaultOutcome classify(const fault::Fault& fault) {
        if (fault.model == fault::FaultModel::ActivationFlip)
            throw std::invalid_argument("the reference covers weight faults");
        if (injector_.masked(fault)) return core::FaultOutcome::Masked;
        const fault::WeightInjector::Scoped guard(injector_, fault);
        const int node = injector_.node_of_layer(fault.layer);
        for (std::size_t i = 0; i < images_.size(); ++i)
            if (predict(net_.forward_from(node, images_[i], acts_[i],
                                          scratch_)) != preds_[i])
                return core::FaultOutcome::Critical;
        return core::FaultOutcome::NonCritical;
    }

private:
    nn::Network net_;
    fault::WeightInjector injector_;
    std::vector<Tensor> images_;
    std::vector<std::vector<Tensor>> acts_;
    std::vector<int> preds_;
    std::vector<Tensor> scratch_;
};

// --- the workload fixture ---------------------------------------------------

/// One recipe's fixture, engine and canonical item list — the census walks
/// the universe in index order, a statistical campaign its drawn sample,
/// exactly as the CLI does.
struct Workbench {
    explicit Workbench(const shard::CampaignRecipe& r)
        : recipe(r), fx(shard::build_fixture(r)) {}

    shard::CampaignRecipe recipe;
    shard::CampaignFixture fx;
    std::unique_ptr<core::CampaignEngine> engine;
    core::CampaignPlan plan;
    bool census = false;
    std::vector<fault::Fault> items;
    std::vector<std::size_t> subpop;  ///< per item (statistical only)

    [[nodiscard]] std::vector<std::uint64_t> layer_counts() const {
        std::vector<std::uint64_t> counts(
            static_cast<std::size_t>(fx.universe.layer_count()), 0);
        for (const fault::Fault& f : items)
            ++counts[static_cast<std::size_t>(f.layer)];
        return counts;
    }
};

Workbench open_workbench(const std::string& recipe_json) {
    Workbench wb(service::parse_submission(recipe_json).recipe);
    wb.census = wb.recipe.approach == core::Approach::Exhaustive;
    wb.engine = std::make_unique<core::CampaignEngine>(wb.fx.net, wb.fx.eval,
                                                       wb.fx.config);
    wb.plan = wb.engine->plan(wb.fx.universe, shard::campaign_spec(wb.recipe));
    if (wb.census) {
        wb.items.reserve(wb.fx.universe.total());
        for (std::uint64_t i = 0; i < wb.fx.universe.total(); ++i)
            wb.items.push_back(wb.fx.universe.decode(i));
        return wb;
    }
    for (const core::DrawnFault& d :
         core::draw_plan(wb.fx.universe, wb.plan,
                         stats::Rng(wb.recipe.seed).fork("campaign"))) {
        wb.items.push_back(d.fault);
        wb.subpop.push_back(d.subpop);
    }
    return wb;
}

/// evaluate_group over the items listed in @p order, grouped as the engine
/// groups them: consecutive items sharing a layer and an ensemble family,
/// at most ensemble_width per group.
struct GroupRun {
    std::vector<core::FaultOutcome> outcomes;  ///< parallel to the input
    double seconds = 0.0;
    std::size_t groups = 0;
    std::vector<std::uint64_t> layer_inferences;
};

GroupRun evaluate_groups(Workbench& wb, const std::vector<std::size_t>& order,
                         SpanLog* spans) {
    core::ClassificationCore& core = wb.engine->core();
    const std::size_t width =
        std::max<std::size_t>(1, wb.engine->config().ensemble_width);
    GroupRun run;
    run.outcomes.assign(order.size(), core::FaultOutcome::NonCritical);
    run.layer_inferences.assign(
        static_cast<std::size_t>(wb.fx.universe.layer_count()), 0);
    std::vector<fault::Fault> batch;
    std::size_t i = 0;
    while (i < order.size()) {
        batch.assign(1, wb.items[order[i]]);
        std::size_t j = i + 1;
        while (j < order.size() && j - i < width &&
               wb.items[order[j]].layer == batch.front().layer &&
               fault::same_ensemble_family(wb.items[order[j]].model,
                                           batch.front().model))
            batch.push_back(wb.items[order[j++]]);
        const std::uint64_t inferences = core.inference_count();
        const double t0 = now_us();
        core.evaluate_group(batch, run.outcomes.data() + i);
        const double t1 = now_us();
        run.seconds += (t1 - t0) * 1e-6;
        run.layer_inferences[static_cast<std::size_t>(batch.front().layer)] +=
            core.inference_count() - inferences;
        if (spans && run.groups < kSpanCalls)
            spans->add("evaluate_group", t0, t1);
        ++run.groups;
        i = j;
    }
    return run;
}

// --- comparing against the CLI ----------------------------------------------

struct Verdict {
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::string> notes;

    void expect(bool ok, const std::string& what) {
        ++checked;
        if (ok) return;
        ++mismatches;
        if (notes.size() < 8) notes.push_back(what);
    }
};

const report::JsonValue* cli_layer(const report::JsonValue& cli, int layer) {
    if (const report::JsonValue* layers = cli.find("layers"))
        for (const report::JsonValue& l : layers->array)
            if (l.get_int("layer", -1) == layer) return &l;
    return nullptr;
}

/// Census: the saved table against the CLI's own summary, and (when
/// given) against outcomes evaluated here.
void check_census_table(const Workbench& wb, const report::JsonValue& cli,
                        const core::ExhaustiveOutcomes& table,
                        Verdict& verdict) {
    const fault::FaultUniverse& u = wb.fx.universe;
    verdict.expect(table.size() == u.total(), "table size != universe");
    verdict.expect(cli.get_uint("classified") == u.total(),
                   "CLI classified != universe");
    verdict.expect(cli.get_num("critical_rate", -1) ==
                       table.network_critical_rate(),
                   "network critical rate differs from the table");
    for (int l = 0; l < u.layer_count(); ++l) {
        const report::JsonValue* entry = cli_layer(cli, l);
        verdict.expect(entry && entry->get_num("critical_rate", -1) ==
                                    table.layer_critical_rate(u, l),
                       "layer " + std::to_string(l) +
                           " critical rate differs from the table");
    }
}

/// Statistical: the estimate built from outcomes evaluated here equals the
/// CLI's, layer by layer (only @p layers when non-empty).
void check_estimates(const Workbench& wb, const report::JsonValue& cli,
                     const std::vector<std::size_t>& order,
                     const std::vector<core::FaultOutcome>& outcomes,
                     const std::vector<int>& layers, Verdict& verdict) {
    const fault::FaultUniverse& u = wb.fx.universe;
    core::CampaignResult result = core::make_empty_result(
        static_cast<std::size_t>(u.layer_count()), wb.plan);
    for (std::size_t k = 0; k < order.size(); ++k)
        core::accumulate_outcome(result.subpops[wb.subpop[order[k]]],
                                 wb.items[order[k]].layer, outcomes[k]);
    if (layers.empty()) {
        verdict.expect(cli.get_uint("total_injected") == wb.items.size(),
                       "CLI total_injected != drawn sample");
        verdict.expect(cli.get_uint("total_critical") ==
                           result.total_critical(),
                       "CLI total_critical differs");
    }
    core::EstimatorConfig est;
    est.confidence = wb.recipe.confidence;
    for (const core::LayerEstimate& le :
         core::estimate_layers(u, result, est)) {
        if (!layers.empty() &&
            std::find(layers.begin(), layers.end(), le.layer) == layers.end())
            continue;
        const report::JsonValue* entry = cli_layer(cli, le.layer);
        verdict.expect(
            entry && entry->get_num("rate", -1) == le.estimate.rate &&
                entry->get_num("margin", -1) == le.estimate.margin &&
                entry->get_uint("injected") == le.estimate.injected,
            "layer " + std::to_string(le.layer) + " estimate differs");
    }
}

/// @p count seeded positions of [0, n), ascending and distinct.
std::vector<std::size_t> seeded_positions(std::size_t n, std::size_t count,
                                          std::uint64_t seed) {
    stats::Rng rng(seed);
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < count && n > 0; ++k)
        out.push_back(static_cast<std::size_t>(rng.uniform_below(n)));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void write_verdict(report::JsonWriter& json, const Verdict& v) {
    json.field("ok", v.mismatches == 0)
        .field("checked", v.checked)
        .field("mismatches", v.mismatches);
    json.key("notes").begin_array();
    for (const std::string& n : v.notes) json.value(n);
    json.end_array();
}

// --- commands ---------------------------------------------------------------

int cmd_build_info() {
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(NDEBUG)
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
    sanitizers += "address,";
#endif
#if defined(__SANITIZE_THREAD__)
    sanitizers += "thread,";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) ||                         \
    __has_feature(memory_sanitizer)
    sanitizers += "clang,";
#endif
#endif
    report::JsonWriter json(std::cout, 0);
    json.begin_object()
        .field("optimized", optimized)
        .field("ndebug", ndebug)
        .field("sanitizers", sanitizers)
        .end_object();
    json.finish();
    return 0;
}

int cmd_check(const Args& args) {
    Workbench wb = open_workbench(args.need("recipe"));
    const report::JsonValue cli = load_json(args.need("cli-json"));
    const std::uint64_t seed = std::stoull(args.need("check-seed"));
    Reference reference(wb.fx, wb.recipe);
    Verdict verdict;
    if (wb.census) {
        const auto table =
            core::ExhaustiveOutcomes::load(args.need("table"));
        check_census_table(wb, cli, table, verdict);
        for (const std::size_t i :
             seeded_positions(wb.items.size(), 512, seed))
            verdict.expect(reference.classify(wb.items[i]) == table.at(i),
                           "census entry " + std::to_string(i) +
                               " differs from the reference");
    } else {
        // One seeded layer among those the sample hit.
        std::vector<int> hit;
        const auto counts = wb.layer_counts();
        for (std::size_t l = 0; l < counts.size(); ++l)
            if (counts[l]) hit.push_back(static_cast<int>(l));
        const int layer = hit.at(static_cast<std::size_t>(
            stats::Rng(seed).uniform_below(hit.size())));
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < wb.items.size(); ++i)
            if (wb.items[i].layer == layer) order.push_back(i);
        const GroupRun run = evaluate_groups(wb, order, nullptr);
        check_estimates(wb, cli, order, run.outcomes, {layer}, verdict);
        for (const std::size_t k :
             seeded_positions(order.size(), 32, seed + 1))
            verdict.expect(
                reference.classify(wb.items[order[k]]) == run.outcomes[k],
                "item " + std::to_string(order[k]) +
                    " differs from the reference");
    }
    report::JsonWriter json(std::cout, 0);
    json.begin_object();
    write_verdict(json, verdict);
    json.end_object();
    json.finish();
    return verdict.mismatches == 0 ? 0 : 3;
}

/// The kernel-family name a node's time is booked under.
std::string kind_group(const std::string& kind) {
    if (kind == "conv2d") return "conv";
    if (kind == "dwconv2d") return "dwconv";
    if (kind == "batchnorm2d") return "bn";
    if (kind == "relu" || kind == "relu6") return "act";
    if (kind == "add" || kind == "padshortcut") return "add";
    if (kind == "linear" || kind == "softmax") return "linear";
    return "pool";  // avgpool2d, maxpool2d, globalavgpool, flatten
}

/// Mul+add peak of this machine at the active backend's vector width (AVX2
/// for the avx2 kernels; SSE, the x86-64 baseline the compiler vectorizes
/// the generic kernels to, otherwise) — separate multiplies and adds, never
/// FMA, like the kernels themselves. Multiplying by 1 and adding 0 read from
/// memory keep every value normal and stop the compiler folding the loop.
volatile float g_one = 1.0f;
volatile float g_zero = 0.0f;
/// Results of timed loops land here so the compiler cannot drop the loops.
volatile double g_sink = 0.0;

#if defined(__x86_64__)
// Six independent multiply chains and six add chains keep both FP ports
// busy; the 6-iteration inner loops unroll into registers.
__attribute__((target("avx2"))) double peak_avx2(std::size_t iters) {
    const __m256 m = _mm256_set1_ps(g_one), a = _mm256_set1_ps(g_zero);
    __m256 p[6], s[6];
    for (int k = 0; k < 6; ++k) p[k] = m, s[k] = a;
    for (std::size_t i = 0; i < iters; ++i)
        for (int k = 0; k < 6; ++k) {
            p[k] = _mm256_mul_ps(p[k], m);
            s[k] = _mm256_add_ps(s[k], a);
        }
    __m256 r = a;
    for (int k = 0; k < 6; ++k) r = _mm256_add_ps(r, _mm256_add_ps(p[k], s[k]));
    return _mm256_cvtss_f32(r);
}

double peak_sse(std::size_t iters) {
    const __m128 m = _mm_set1_ps(g_one), a = _mm_set1_ps(g_zero);
    __m128 p[6], s[6];
    for (int k = 0; k < 6; ++k) p[k] = m, s[k] = a;
    for (std::size_t i = 0; i < iters; ++i)
        for (int k = 0; k < 6; ++k) {
            p[k] = _mm_mul_ps(p[k], m);
            s[k] = _mm_add_ps(s[k], a);
        }
    __m128 r = a;
    for (int k = 0; k < 6; ++k) r = _mm_add_ps(r, _mm_add_ps(p[k], s[k]));
    return _mm_cvtss_f32(r);
}
#endif

/// GFLOP/s of the peak loop (12 vector operations per iteration).
double measure_peak_gflops() {
    constexpr std::size_t kIters = 1 << 20;
#if defined(__x86_64__)
    const bool avx2 = std::string(kernels::active().name) == "avx2";
    const double lanes = avx2 ? 8.0 : 4.0;
    const double seconds = time_call(
        [&] { g_sink = avx2 ? peak_avx2(kIters) : peak_sse(kIters); }, 5,
        0.02);
#else
    const double lanes = 1.0;
    const double seconds = time_call(
        [&] {
            float p = g_one, s = g_zero;
            for (std::size_t i = 0; i < 6 * kIters; ++i) {
                p *= g_one;
                s += g_zero;
            }
            g_sink = p + s;
        },
        5, 0.02);
#endif
    return 12.0 * lanes * static_cast<double>(kIters) / seconds / 1e9;
}

using Metrics = std::map<std::string, double>;

/// The nn rung's own fixture: a clone of the workload's network (a node
/// hook on it never touches the engine's networks), the eval images stacked
/// into kLanes lanes with their golden activations, and one golden lane.
struct NnBench {
    nn::Network net;
    std::vector<int> layer_node;  ///< graph node of each weight layer
    Tensor input8;
    std::vector<Tensor> golden8;
    Tensor image0;
    std::vector<Tensor> golden1;

    explicit NnBench(const Workbench& wb)
        : net(wb.fx.net.clone()), image0(wb.fx.eval.image(0)) {
        for (const auto& ref : net.weight_layers())
            layer_node.push_back(ref.node_id);
        const Tensor& all = wb.fx.eval.images;
        const auto images = static_cast<std::size_t>(all.shape()[0]);
        const std::size_t size = all.numel() / images;
        input8 = Tensor(Shape{static_cast<std::int64_t>(kLanes),
                              all.shape()[1], all.shape()[2], all.shape()[3]});
        for (std::size_t l = 0; l < kLanes; ++l)
            std::memcpy(input8.data() + l * size,
                        all.data() + (l % images) * size, size * sizeof(float));
        net.forward_all(input8, golden8);
        net.forward_all(image0, golden1);
    }

    /// Golden single-lane value of input @p k of @p node.
    [[nodiscard]] const Tensor& input_of(int node, std::size_t k) const {
        const int in = net.node_inputs(node).at(k);
        return in == nn::Network::kInputId
                   ? image0
                   : golden1[static_cast<std::size_t>(in)];
    }
};

/// nn: each hit layer's ensemble suffix at kLanes lanes, weighted by the
/// workload's faults in that layer; the timestamps of a node hook on the
/// same calls split the time by node kind. Returns the weighted suffix
/// seconds the GEMM share is taken against.
double probe_suffixes(NnBench& nb, const std::vector<std::uint64_t>& weight,
                      const GroupRun& run, SpanLog& spans, Metrics& m) {
    Scope scope(&spans, "nn_suffix");
    Metrics kind_seconds;
    for (const char* k :
         {"conv", "dwconv", "bn", "act", "add", "pool", "linear"})
        kind_seconds[k] = 0.0;
    double weight_total = 0.0, weighted = 0.0, modeled_nn = 0.0;
    std::vector<std::pair<int, double>> stamps;
    nb.net.set_node_hook(
        [&](int id, Tensor&) { stamps.emplace_back(id, now_us()); });
    std::vector<Tensor> scratch;
    std::size_t forwards = 0;
    for (std::size_t l = 0; l < nb.layer_node.size(); ++l) {
        const auto w = static_cast<double>(weight[l]);
        weight_total += w;
        const int first = nb.layer_node[l] + 1;
        if (!weight[l] || first >= nb.net.node_count()) continue;
        Metrics node_seconds;
        int calls = 0;
        const double sec = time_call([&] {
            stamps.clear();
            double prev = now_us();
            (void)nb.net.forward_from(first, nb.input8, nb.golden8, scratch);
            for (const auto& [id, t] : stamps) {
                node_seconds[kind_group(nb.net.layer(id).kind())] +=
                    (t - prev) * 1e-6;
                if (forwards < kSpanCalls)
                    spans.add(nb.net.node_name(id), prev, t);
                prev = t;
            }
            ++forwards;
            ++calls;
        });
        for (const auto& [kind, k_sec] : node_seconds)
            kind_seconds[kind] += w * k_sec / calls;
        weighted += w * sec;
        modeled_nn += static_cast<double>(run.layer_inferences[l]) * sec /
                      static_cast<double>(kLanes);
    }
    nb.net.set_node_hook({});
    m["nn.suffix_ms"] = 1e3 * weighted / weight_total;
    m["core.nn_share"] = modeled_nn / run.seconds;
    double kind_total = 0.0;
    for (const auto& [kind, sec] : kind_seconds) kind_total += sec;
    for (const auto& [kind, sec] : kind_seconds)
        m["nn." + kind + "_share"] = kind_total > 0 ? sec / kind_total : 0.0;
    return weighted;
}

/// nn: Layer::forward_row_cached on seeded weight words of each hit layer,
/// with a warm row cache, as the ensemble frontier uses it.
void probe_rows(const Workbench& wb, NnBench& nb,
                const std::vector<std::uint64_t>& weight, std::uint64_t seed,
                SpanLog& spans, Metrics& m) {
    Scope scope(&spans, "nn_row");
    double weighted = 0.0, weight_total = 0.0;
    for (std::size_t l = 0; l < nb.layer_node.size(); ++l) {
        const int node = nb.layer_node[l];
        const nn::Layer& layer = nb.net.layer(node);
        if (!weight[l] || !layer.supports_row_update()) continue;
        std::vector<const Tensor*> inputs;
        for (std::size_t k = 0; k < nb.net.node_inputs(node).size(); ++k)
            inputs.push_back(&nb.input_of(node, k));
        Tensor out = nb.golden1[static_cast<std::size_t>(node)];
        Tensor cache;
        const auto rows = seeded_positions(
            static_cast<std::size_t>(
                wb.fx.universe.layer(static_cast<int>(l)).weight_count),
            64, seed + l);
        std::size_t r = 0;
        const double sec = time_call([&] {
            layer.forward_row_cached(inputs, rows[r++ % rows.size()], cache,
                                     out);
        });
        weighted += static_cast<double>(weight[l]) * sec;
        weight_total += static_cast<double>(weight[l]);
    }
    m["nn.row_us"] = weight_total > 0 ? 1e6 * weighted / weight_total : 0.0;
}

/// kernels: the active backend's GEMM on every conv node's shape, kLanes
/// calls each, weighted by how many of the workload's faults run through
/// that node; plus the machine's mul+add peak in the same run.
void probe_kernels(NnBench& nb, const std::vector<std::uint64_t>& weight,
                   double suffix_seconds, SpanLog& spans, Metrics& m) {
    Scope scope(&spans, "kernels");
    const kernels::Kernels& k = kernels::active();
    double flops = 0.0, gemm_seconds = 0.0;
    std::size_t calls = 0;
    for (int node = 0; node < nb.net.node_count(); ++node) {
        const auto* conv = dynamic_cast<const nn::Conv2d*>(&nb.net.layer(node));
        if (!conv) continue;
        double w = 0.0;
        for (std::size_t l = 0; l < nb.layer_node.size(); ++l)
            if (nb.layer_node[l] < node) w += static_cast<double>(weight[l]);
        if (w == 0.0) continue;
        const Tensor& x = nb.input_of(node, 0);
        const std::size_t M = static_cast<std::size_t>(conv->out_channels());
        const std::size_t K = static_cast<std::size_t>(
            conv->in_channels() * conv->kernel() * conv->kernel());
        const std::size_t N =
            nb.golden1[static_cast<std::size_t>(node)].numel() / M;
        std::vector<float> cols(K * N), out(M * N);
        nn::im2col(x.data(), conv->in_channels(), x.shape()[2], x.shape()[3],
                   conv->kernel(), conv->stride(), conv->padding(),
                   cols.data());
        const double sec = time_call([&] {
            const double t0 = now_us();
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                k.gemm_accumulate(M, N, K, conv->weight().data(), cols.data(),
                                  out.data());
            if (calls++ < kSpanCalls)
                spans.add("gemm " + nb.net.node_name(node), t0, now_us());
        });
        flops += w * 2.0 * static_cast<double>(kLanes * M * N * K);
        gemm_seconds += w * sec;
    }
    m["kernels.gemm_gflops"] =
        gemm_seconds > 0 ? flops / gemm_seconds / 1e9 : 0.0;
    m["nn.gemm_share"] =
        suffix_seconds > 0 ? gemm_seconds / suffix_seconds : 0.0;
    m["kernels.peak_gflops"] = measure_peak_gflops();
    m["kernels.gemm_of_peak"] =
        m["kernels.gemm_gflops"] / m["kernels.peak_gflops"];
}

/// fault: FaultUniverse::decode on seeded indices, WeightInjector
/// apply+restore on the workload's own faults.
void probe_faults(const Workbench& wb, NnBench& nb, std::uint64_t seed,
                  SpanLog& spans, Metrics& m) {
    Scope scope(&spans, "fault");
    const auto indices = seeded_positions(
        static_cast<std::size_t>(wb.fx.universe.total()), 1 << 14, seed);
    const double decode = time_call([&] {
        std::int64_t bits = 0;
        for (const std::size_t i : indices)
            bits += wb.fx.universe.decode(i).bit;
        g_sink = static_cast<double>(bits);
    });
    m["fault.decode_ns"] = 1e9 * decode / static_cast<double>(indices.size());
    fault::WeightInjector injector(nb.net, wb.fx.config.dtype,
                                   wb.fx.config.layer_quant);
    const std::size_t n = std::min<std::size_t>(wb.items.size(), 4096);
    const double apply_restore = time_call([&] {
        for (std::size_t i = 0; i < n; ++i)
            injector.restore(wb.items[i], injector.apply(wb.items[i]));
    });
    m["fault.inject_restore_ns"] = 1e9 * apply_restore / static_cast<double>(n);
}

int cmd_ladder(const Args& args) {
    g_quick = args.values.count("quick") && args.need("quick") == "1";
    const std::uint64_t seed = std::stoull(args.need("check-seed"));
    SpanLog spans;
    const int root = spans.open("probe");
    Metrics m;

    // Set-up rungs: fixture, golden pass, plan, draw.
    const std::string recipe_json = args.need("recipe");
    const shard::CampaignRecipe recipe =
        service::parse_submission(recipe_json).recipe;
    {
        Scope s(&spans, "build_fixture");
        m["shard.fixture_s"] =
            time_call([&] { (void)shard::build_fixture(recipe); });
    }
    Workbench wb = [&] {
        Scope s(&spans, "open_workbench");
        return open_workbench(recipe_json);
    }();
    {
        Scope s(&spans, "golden");
        m["core.golden_s"] = time_call([&] {
            core::CampaignEngine e(wb.fx.net, wb.fx.eval, wb.fx.config);
        });
    }
    {
        Scope s(&spans, "plan");
        m["core.plan_s"] = time_call([&] {
            (void)wb.engine->plan(wb.fx.universe,
                                  shard::campaign_spec(wb.recipe));
        });
    }
    {
        Scope s(&spans, "draw_plan");
        m["stats.draw_ms"] = 1e3 * time_call([&] {
            (void)core::draw_plan(wb.fx.universe, wb.plan,
                                  stats::Rng(wb.recipe.seed).fork("campaign"));
        });
    }

    // core: every item through evaluate_group, as the engine groups them.
    std::vector<std::size_t> order(wb.items.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const GroupRun run = [&] {
        Scope s(&spans, "core_evaluate");
        return evaluate_groups(wb, order, &spans);
    }();
    const double items = static_cast<double>(wb.items.size());
    const auto groups = static_cast<double>(run.groups);
    m["core.faults_per_s"] = items / run.seconds;
    m["core.group_us"] = 1e6 * run.seconds / groups;
    m["core.faults_per_group"] = items / groups;
    m["core.inferences_per_fault"] =
        static_cast<double>(std::accumulate(run.layer_inferences.begin(),
                                            run.layer_inferences.end(),
                                            std::uint64_t{0})) /
        items;
    m["core.masked_share"] =
        static_cast<double>(std::count(run.outcomes.begin(), run.outcomes.end(),
                                       core::FaultOutcome::Masked)) /
        items;
    m["core.engine_share"] = run.seconds / std::stod(args.need("classify-s"));
    m["core.ensemble_mb"] =
        static_cast<double>(wb.engine->core().ensemble_bytes()) / (1 << 20);

    // Correctness: every outcome against the CLI's output, a seeded sample
    // against the reference.
    Verdict verdict;
    {
        Scope s(&spans, "verify");
        const report::JsonValue cli = load_json(args.need("cli-json"));
        Reference reference(wb.fx, wb.recipe);
        std::size_t sampled = 256;
        if (wb.census) {
            const auto table =
                core::ExhaustiveOutcomes::load(args.need("table"));
            check_census_table(wb, cli, table, verdict);
            std::uint64_t differ = 0;
            for (std::size_t i = 0; i < std::min<std::size_t>(
                                        wb.items.size(), table.size());
                 ++i)
                differ += table.at(i) != run.outcomes[i];
            verdict.expect(differ == 0,
                           std::to_string(differ) +
                               " table entries differ from evaluate_group");
            sampled = 512;
        } else {
            check_estimates(wb, cli, order, run.outcomes, {}, verdict);
        }
        for (const std::size_t i :
             seeded_positions(wb.items.size(), sampled, seed))
            verdict.expect(reference.classify(wb.items[i]) == run.outcomes[i],
                           "item " + std::to_string(i) +
                               " differs from the reference");
    }

    const std::vector<std::uint64_t> weight = wb.layer_counts();
    NnBench nb(wb);
    const double suffix_seconds = probe_suffixes(nb, weight, run, spans, m);
    probe_rows(wb, nb, weight, seed, spans, m);
    probe_kernels(nb, weight, suffix_seconds, spans, m);
    probe_faults(wb, nb, seed, spans, m);

    // Golden activation cache: the images and every node output per image.
    double golden_floats = static_cast<double>(wb.fx.eval.images.numel());
    for (const Tensor& act : nb.golden1)
        golden_floats += static_cast<double>(act.numel()) *
                         static_cast<double>(wb.fx.eval.size());
    m["core.golden_mb"] = golden_floats * sizeof(float) / (1 << 20);

    spans.close(root);
    spans.write(args.need("spans"));
    report::JsonWriter json(std::cout, 0);
    json.begin_object();
    write_verdict(json, verdict);
    json.field("items", static_cast<std::uint64_t>(wb.items.size()));
    json.key("metrics").begin_object();
    for (const auto& [name, value] : m) json.field(name, value);
    json.end_object().end_object();
    json.finish();
    return verdict.mismatches == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args args(argc, argv);
        if (args.command == "build-info") return cmd_build_info();
        if (args.command == "check") return cmd_check(args);
        if (args.command == "ladder") return cmd_ladder(args);
        throw std::invalid_argument("unknown command '" + args.command +
                                    "' (build-info|check|ladder)");
    } catch (const std::exception& e) {
        std::cerr << "statfi_probe: " << e.what() << "\n";
        return 1;
    }
}
