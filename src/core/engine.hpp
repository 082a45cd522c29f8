#pragma once
// CampaignEngine: the single execution facade for fault-injection
// campaigns. CampaignSpec -> plan -> execute -> CampaignResult, with the
// worker count a runtime knob — serial execution is the 1-worker case.
//
// Every run is an item stream [lo, hi) through ONE private executor. Item i
// decodes lazily to a fault: universe.decode(i) for a census (never
// materialized), items[i].fault for a drawn sample. Only the executor
// groups items for the ensemble pass, fans out over workers, polls
// cancellation, journals and reports progress; the public run* methods are
// thin adapters, and a non-durable run is one without a journal.
//
// Determinism contract: results are bit-identical across worker counts and
// across interrupt/resume points.
//  * Samples are drawn up front from per-subpop RNG streams that never see
//    the worker count; classifying a fault is a deterministic function of
//    (network, eval set, fault), so partitioning cannot change tallies.
//  * Each worker walks one contiguous chunk in ascending order and owns its
//    outcome slots; tallies are accumulated serially in item order.
//  * Worker count never enters the campaign fingerprint.
// tests/core/engine_test.cpp and durability_test.cpp assert all of this.

#include <memory>

#include "core/classification_core.hpp"
#include "core/data_aware.hpp"

namespace statfi::core {

/// What campaign to run, planner-level. dtype and policy live in
/// ExecutorConfig (they identify the campaign); the spec picks the
/// sampling approach and its statistical parameters.
struct CampaignSpec {
    Approach approach = Approach::NetworkWise;
    stats::SampleSpec sample;
    /// Data-aware analysis knobs (DataAware only). dtype/quant are derived
    /// from the engine's config and weights; the rest is honored as given.
    DataAwareConfig analysis;
};

/// One drawn statistical sample item: the subpopulation it tallies into and
/// the concrete fault.
struct DrawnFault {
    std::size_t subpop = 0;
    fault::Fault fault;
};

/// Materialize a statistical plan's full drawn sample in the canonical item
/// order (subpopulations in plan order, each subpopulation's indices
/// ascending). A pure function of (universe, plan, rng): worker count and
/// execution partitioning never enter, which is what lets a sharded run
/// classify any contiguous item range independently and still merge
/// bit-identical to an unsharded run (src/shard/).
std::vector<DrawnFault> draw_plan(const fault::FaultUniverse& universe,
                                  const CampaignPlan& plan, stats::Rng rng);

/// Identity of a statistical run's journal: the campaign fingerprint over
/// the ITEM space instead of the fault universe. Swapping the size and
/// tagging the model id guarantees a census journal never resumes into a
/// statistical run (and vice versa) even at the same path.
CampaignFingerprint item_space_fingerprint(CampaignFingerprint fp,
                                           std::uint64_t item_count);

class CampaignEngine {
public:
    /// Clones @p net once per worker, so campaign corruption never touches
    /// the caller's weights. @p threads == 0 means hardware concurrency.
    /// @p telemetry (optional, borrowed — must outlive the engine) receives
    /// phase spans, per-worker counters, and gauges; nullptr disables all
    /// instrumentation at the cost of one pointer compare per fault.
    CampaignEngine(const nn::Network& net, const data::Dataset& eval,
                   ExecutorConfig config = {}, std::size_t threads = 1,
                   telemetry::Session* telemetry = nullptr);

    [[nodiscard]] std::size_t worker_count() const noexcept;
    [[nodiscard]] const ExecutorConfig& config() const noexcept;
    [[nodiscard]] double golden_accuracy() const;
    [[nodiscard]] const std::vector<int>& golden_predictions() const;
    /// Lane-image pairs classified, summed over all workers (see
    /// ClassificationCore::inference_count).
    [[nodiscard]] std::uint64_t inference_count() const;
    /// Of those, the pairs retired early as golden, summed over all workers
    /// (see ClassificationCore::retired_count).
    [[nodiscard]] std::uint64_t retired_count() const;

    /// Direct access to a worker's kernel (worker 0 by default) — for
    /// single-fault probes.
    [[nodiscard]] ClassificationCore& core(std::size_t worker = 0);

    /// See ClassificationCore::fingerprint.
    [[nodiscard]] CampaignFingerprint fingerprint(
        const fault::FaultUniverse& universe, std::string model_id) const;

    /// Turn a spec into a concrete plan. For DataAware this runs the
    /// golden-weight bit-criticality analysis on worker 0's clone (deriving
    /// the Int8 quantization scale from the weights when needed).
    [[nodiscard]] CampaignPlan plan(const fault::FaultUniverse& universe,
                                    const CampaignSpec& spec);

    /// Execute a statistical plan: draw_plan() + run_durable() with no
    /// journal. @p cancel (optional) stops between groups; the partial
    /// result is marked interrupted.
    CampaignResult run(const fault::FaultUniverse& universe,
                       const CampaignPlan& plan, stats::Rng rng,
                       const CancellationToken* cancel = nullptr);

    /// plan() + run() in one call — the facade the CLI, examples, and
    /// benches use. Exhaustive specs run the whole universe through the
    /// same path (every subpopulation fully sampled).
    CampaignResult run_campaign(const fault::FaultUniverse& universe,
                                const CampaignSpec& spec, stats::Rng rng,
                                const CancellationToken* cancel = nullptr);

    /// Classify every fault in the universe. @p progress (optional) gets a
    /// rate/ETA heartbeat about 64 times per run, at most every 4096 faults
    /// (the stride every run* entry point shares).
    ExhaustiveOutcomes run_exhaustive(const fault::FaultUniverse& universe,
                                      const ProgressFn& progress = {});

    /// Statistical run with durability, shared by run(), the shard runner,
    /// the CLI's resumable campaigns and run_adaptive(). Classifies the
    /// drawn items of [options.range_begin, options.range_end) (whole
    /// sample when range_end == 0), journaling absolute ITEM indices under
    /// the item-space fingerprint. Full-range runs emit the canonical
    /// stratum_update cadence; range-restricted (shard) runs skip emission —
    /// their slice is not a population.
    StatisticalRun run_durable(const fault::FaultUniverse& universe,
                               const CampaignPlan& plan,
                               const std::vector<DrawnFault>& items,
                               const DurabilityOptions& options,
                               const ProgressFn& progress = {});

    /// run_exhaustive with durability: journaled checkpoints every record
    /// (flushed every flush_interval), resume from a matching journal, and
    /// cooperative cancellation. Resuming an interrupted run produces
    /// outcomes bit-identical to an uninterrupted one, for any interruption
    /// point and any worker count.
    ExhaustiveRun run_exhaustive_durable(const fault::FaultUniverse& universe,
                                         const DurabilityOptions& options,
                                         const ProgressFn& progress = {});

    /// The telemetry session this engine reports into (nullptr when off).
    [[nodiscard]] telemetry::Session* telemetry() const noexcept {
        return telemetry_;
    }

private:
    /// A private network clone and the classification core bound to it.
    struct Worker {
        nn::Network net;
        ClassificationCore core;
        Worker(const nn::Network& source, const data::Dataset& eval,
               const ExecutorConfig& config)
            : net(source.clone()), core(net, eval, config) {}
    };

    /// The executor behind every run* method: classifies the items
    /// [options.range_begin, + out.size()) of @p items (a drawn sample) or,
    /// when null, of the universe (a census), writing each outcome to its
    /// slot in @p out. Slots neither replayed nor classified (a cancelled
    /// run) keep what the caller put there.
    RunStatus execute(const fault::FaultUniverse& universe,
                      const std::vector<DrawnFault>* items,
                      const DurabilityOptions& options,
                      const ProgressFn& progress, std::span<std::uint8_t> out);

    std::vector<std::unique_ptr<Worker>> workers_;
    telemetry::Session* telemetry_ = nullptr;
};

}  // namespace statfi::core
