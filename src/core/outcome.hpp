#pragma once
// Campaign vocabulary shared by every execution path: how faults are
// classified, how tallies are reported, and the dense exhaustive outcome
// table that statistical plans replay against.
//
// This header is deliberately execution-free — the fault->outcome kernel
// lives in core/classification_core.hpp and the orchestration (worker
// fan-out, journaling, progress) in core/engine.hpp, so that result
// consumers (estimator, benches, replay) never pull in the engine.

#include <atomic>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/planner.hpp"
#include "fault/mitigation.hpp"
#include "stats/rng.hpp"
#include "telemetry/progress.hpp"

namespace statfi::core {

/// How a fault is classified Critical. The paper classifies on top-1
/// correctness; the exact per-fault aggregation is configurable.
enum class ClassificationPolicy : std::uint8_t {
    /// Critical iff some image the golden network classifies correctly is
    /// misclassified under the fault (default; the paper's "top-1 prediction
    /// is correct" criterion under permanent faults).
    AnyMisprediction,
    /// Critical iff some image's top-1 differs from the golden top-1
    /// (usable without ground-truth labels).
    GoldenMismatch,
    /// Critical iff top-1 accuracy drops by more than `accuracy_drop_threshold`.
    AccuracyDrop,
};

const char* to_string(ClassificationPolicy policy) noexcept;

enum class FaultOutcome : std::uint8_t {
    NonCritical = 0,
    Critical = 1,
    Masked = 2,  ///< stored word unchanged -> Non-critical without inference
};

/// Classification knobs shared by every campaign executor. Worker count is
/// NOT part of this config (it cannot change outcomes, so it must not enter
/// the campaign fingerprint either).
struct ExecutorConfig {
    ClassificationPolicy policy = ClassificationPolicy::AnyMisprediction;
    double accuracy_drop_threshold = 0.0;  ///< for AccuracyDrop: strict drop > threshold
    fault::DataType dtype = fault::DataType::Float32;
    /// Mitigations deployed on the network under test (clipping changes the
    /// golden pass too — the hardened network is measured against itself).
    fault::MitigationConfig mitigation;
    /// Per-weight-layer quantization parameters, in weight-layer order.
    /// Non-empty when the fixture deployed a formats::QuantizedStore: the
    /// injector then reuses the store's scales instead of re-deriving them
    /// from the (already quantized) weights, which would drift by an ulp.
    /// Empty = derive from current weights (legacy fp32 path).
    std::vector<fault::QuantParams> layer_quant;
    /// Max faults evaluated per blocked ensemble pass (engine groups
    /// consecutive plan items sharing a layer and fault model). 1 = one
    /// fault per pass, same path. Like the worker count, this is a
    /// throughput knob that CANNOT change outcomes (a fault's lane never
    /// depends on the other lanes), so it never enters the campaign
    /// fingerprint.
    std::size_t ensemble_width = 8;
};

/// Per-subpopulation campaign tallies.
struct SubpopResult {
    SubpopPlan plan;
    std::uint64_t injected = 0;
    std::uint64_t critical = 0;
    std::uint64_t masked = 0;

    /// For subpopulations spanning layers (network-wise plans), where each
    /// sampled fault actually landed — what a per-layer readout of a
    /// network-wise campaign has to work with (paper Fig. 7). Empty for
    /// single-layer subpopulations.
    std::vector<std::uint64_t> layer_injected;
    std::vector<std::uint64_t> layer_critical;

    [[nodiscard]] double critical_rate() const {
        return injected ? static_cast<double>(critical) /
                              static_cast<double>(injected)
                        : 0.0;
    }
};

struct CampaignResult {
    Approach approach = Approach::NetworkWise;
    stats::SampleSpec spec;
    std::vector<SubpopResult> subpops;
    double wall_seconds = 0.0;
    /// True when a CancellationToken stopped the campaign early; tallies
    /// cover only the faults classified before the stop.
    bool interrupted = false;

    [[nodiscard]] std::uint64_t total_injected() const;
    [[nodiscard]] std::uint64_t total_critical() const;
    [[nodiscard]] double critical_rate() const;
};

/// Seed an empty CampaignResult from a plan: approach/spec copied, one
/// zeroed tally per subpopulation, layer-attribution vectors (sized
/// @p layer_count) for subpopulations that span layers. The single tally
/// shape shared by direct execution, replay, and the shard merger.
CampaignResult make_empty_result(std::size_t layer_count,
                                 const CampaignPlan& plan);

/// Add one classified fault to its subpopulation tally. @p layer attributes
/// spanning subpopulations (ignored for single-layer subpopulations).
void accumulate_outcome(SubpopResult& tally, int layer, FaultOutcome outcome);

/// Dense per-fault outcome table from an exhaustive campaign — ground truth
/// for validating the statistical approaches, replayable into any plan.
///
/// Range queries are served from a lazily built prefix-sum index (one O(N)
/// build amortized over all queries), so the figure/table benches can ask
/// for every (bit, layer) subpopulation rate without rescanning the
/// universe each time. Writers invalidate the index; concurrent set() calls
/// to distinct indices are safe, but queries must not race with writes.
class ExhaustiveOutcomes {
public:
    ExhaustiveOutcomes() = default;
    explicit ExhaustiveOutcomes(std::uint64_t universe_size);

    ExhaustiveOutcomes(const ExhaustiveOutcomes& other);
    ExhaustiveOutcomes& operator=(const ExhaustiveOutcomes& other);
    ExhaustiveOutcomes(ExhaustiveOutcomes&& other) noexcept;
    ExhaustiveOutcomes& operator=(ExhaustiveOutcomes&& other) noexcept;

    [[nodiscard]] std::uint64_t size() const noexcept { return outcomes_.size(); }
    [[nodiscard]] FaultOutcome at(std::uint64_t index) const {
        return static_cast<FaultOutcome>(outcomes_.at(index));
    }
    void set(std::uint64_t index, FaultOutcome outcome) {
        outcomes_.at(index) = static_cast<std::uint8_t>(outcome);
        index_stale_.store(true, std::memory_order_relaxed);
    }
    /// Raw outcome bytes for bulk writers (the engine classifies a census
    /// straight into them); marks the index stale, like set().
    [[nodiscard]] std::span<std::uint8_t> bytes() noexcept {
        index_stale_.store(true, std::memory_order_relaxed);
        return outcomes_;
    }

    /// Exact critical rate of an index range [begin, end).
    [[nodiscard]] double critical_rate(std::uint64_t begin,
                                       std::uint64_t end) const;
    [[nodiscard]] std::uint64_t critical_count(std::uint64_t begin,
                                               std::uint64_t end) const;

    /// Exact rates for the subpopulations the universe defines.
    [[nodiscard]] double layer_critical_rate(const fault::FaultUniverse& u,
                                             int layer) const;
    [[nodiscard]] double subpop_critical_rate(const fault::FaultUniverse& u,
                                              int layer, int bit) const;
    [[nodiscard]] double network_critical_rate() const;

    /// Binary persistence ("SFIO" v2: versioned header + CRC32 trailer),
    /// written to a temporary and atomically renamed so a crash mid-save
    /// never leaves a torn file. load() names the violated invariant
    /// (short header, bad magic, unsupported version, truncated payload,
    /// checksum mismatch) in the exception message.
    void save(const std::string& path) const;
    static ExhaustiveOutcomes load(const std::string& path);

private:
    [[nodiscard]] const std::vector<std::uint64_t>& prefix() const;

    std::vector<std::uint8_t> outcomes_;
    /// prefix_[i] = number of Critical outcomes in [0, i).
    mutable std::vector<std::uint64_t> prefix_;
    mutable std::atomic<bool> index_stale_{true};
};

/// Heartbeat types live in the telemetry subsystem (the rate/ETA
/// arithmetic is telemetry::ProgressReporter); aliased here so campaign
/// code keeps its historical core:: spelling.
using ProgressInfo = telemetry::ProgressInfo;
using ProgressFn = telemetry::ProgressFn;

/// Durability knobs shared by every CampaignEngine run.
struct DurabilityOptions {
    /// Append-only checkpoint journal; empty disables journaling. When the
    /// file already holds a journal with a matching fingerprint, the run
    /// resumes after its last valid record.
    std::string journal_path;
    std::string model_id = "campaign";  ///< fingerprint component
    std::uint64_t flush_interval = 4096;  ///< journal flush every K records
    const CancellationToken* cancel = nullptr;  ///< optional cooperative stop
    /// Restrict the run to items [range_begin, range_end) of its stream —
    /// the shard runner's hook. range_end == 0 means the whole stream.
    /// Outcome slots outside the range are left NonCritical; journal records
    /// outside the range are ignored on resume. Progress/ETA cover the range
    /// only, and `complete` means the range (not the stream) is done.
    std::uint64_t range_begin = 0;
    std::uint64_t range_end = 0;
};

/// How far a durable run got; shared by both run kinds below.
struct RunStatus {
    bool complete = true;  ///< false: cancelled — journal holds progress
    std::uint64_t classified = 0;  ///< items classified by this run
    std::uint64_t resumed = 0;     ///< outcomes replayed from the journal
};

/// Outcome of a durable exhaustive run.
struct ExhaustiveRun : RunStatus {
    ExhaustiveOutcomes outcomes;
};

/// Outcome of a durable statistical run (CampaignEngine::run_durable): the
/// canonical tallies plus the raw per-item outcomes of the classified item
/// range (what shard results persist).
struct StatisticalRun : RunStatus {
    CampaignResult result;
    std::vector<std::uint8_t> outcomes;  ///< FaultOutcome per item in range
};

/// Global index of @p sp's first fault (0 for a layer-spanning subpop).
std::uint64_t subpop_base(const fault::FaultUniverse& universe,
                          const SubpopPlan& sp);

/// Replay a statistical plan against exhaustive ground truth: sampling is
/// real, classification is a table lookup. Deterministic faults on a fixed
/// evaluation set make this bit-identical to re-running the injections,
/// at zero inference cost (used by the figure/table benches).
CampaignResult replay(const fault::FaultUniverse& universe,
                      const CampaignPlan& plan,
                      const ExhaustiveOutcomes& outcomes, stats::Rng rng);

}  // namespace statfi::core
