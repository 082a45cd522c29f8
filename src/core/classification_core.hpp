#pragma once
// ClassificationCore: the fault -> outcome kernel. One core = one network's
// weight storage + one golden-activation cache + one ensemble workspace;
// the CampaignEngine owns one core per worker and everything above this
// layer (sampling, journaling, progress, fan-out) is core-count agnostic.
//
// Every fault is classified as one lane of a fault-batched ensemble pass
// (evaluate_group), whatever the group size — a lone fault is a group of
// one. Performance model (what makes exhaustive validation feasible on a
// CPU):
//  * the golden activations of every node are cached once, via a SINGLE
//    batched forward_all over the whole (N,C,H,W) evaluation tensor, then
//    split back into per-image rows (bit-identical to per-image passes:
//    every layer computes batch rows independently — see nn/gemm.hpp);
//  * a weight fault in graph node k only dirties nodes >= k, and inside
//    node k only the one output channel (row) its corrupted word feeds: a
//    lane starts as that channel's plane, recomputed from a cached golden
//    im2col matrix (Layer::forward_row_cached);
//  * channel-local frontier: BN, activations, pooling, depthwise conv and
//    Add keep a one-channel difference in its channel, so through node k's
//    channel region (Network::channel_region) a lane is one plane per
//    dirty node, each computed from the lane's planes and golden's planes
//    of the same channel (Layer::forward_channel). At the region's end,
//    the first channel-mixing node t, each lane's inputs are materialized
//    (golden with its planes written in) and t resumes: a conv starts each
//    lane from the golden partial sums over the input channels before the
//    lane's own, one running sum per image handed from lane to lane
//    (Layer::forward_resume); then all lanes run the rest of the graph
//    together as one batch (Network::forward_from). An activation fault's
//    lane is its image's golden plane with one element flipped, through
//    the same runner;
//  * a stuck-at equal to the golden bit is masked by construction and is
//    classified Non-critical without any inference (half of a stuck-at
//    universe on average);
//  * per-image early exit: a lane is Critical as soon as one image trips
//    the policy and leaves the batch, so critical faults rarely scan the
//    whole evaluation set;
//  * exact early exit: a lane whose activations are golden again bit for
//    bit can only compute the golden logits, so it leaves the ensemble for
//    that image and predicts what the golden logits predict. In the
//    region, a plane is compared with golden's wherever it is the lane's
//    only live dirty activation (the weight frontier's after its clamp);
//    every other activation is golden there, so an equal plane means the
//    whole lane is. After t, the suffix is checked at its cuts
//    (Network::next_cut: a node after which nothing older than its own
//    output is read): it runs in segments ending at cuts; at a cut, rows
//    equal to golden retire and the survivors are compacted before the
//    next segment. A cut's output is the only live activation after it,
//    so a lane never retires while a live activation still differs, and
//    once every live activation is golden, every later one is, so any
//    later checked cut catches the rejoin. A cut is checked when a weight
//    layer (conv, linear) runs next: a rejoin is then still caught before
//    the layers where the suffix spends its time. No tolerance is
//    involved (memcmp, so -0 and +0 differ and a NaN equals only its own
//    bits);
//  * the workspace is grow-only and sized by what is live: every buffer
//    keeps its allocation when a group's lane count or a node's shape
//    changes (nn::ensure_shape), forward_from runs the suffix in a pool
//    holding only the outputs some later node still reads, and only the
//    current dirty node's materialized entries hold memory (they move
//    between ensemble_golden_ entries when it changes), beside one lane's
//    planes and the resume node's output, which the cut spare holds. So
//    the ~10^5-fault hot loop stops allocating once the widest group has
//    run through each layer, and the ensemble's footprint is a few
//    activations wide, not the graph's.
//
// tests/support/reference_classifier.hpp restates the classification one
// fault and one image at a time, as the oracle the ensemble is checked
// against.

#include <span>
#include <string>
#include <vector>

#include "core/outcome.hpp"
#include "data/synthetic.hpp"
#include "fault/injector.hpp"
#include "telemetry/session.hpp"

namespace statfi::core {

/// Golden forward-pass state shared by the weight-fault core and the
/// activation-fault campaign: per-image inputs, per-node activations,
/// top-1 predictions, and the evaluation order that makes early exit pay.
struct GoldenCache {
    std::vector<Tensor> images;             ///< (1, C, H, W) each
    std::vector<int> labels;
    std::vector<std::vector<Tensor>> acts;  ///< per image, per node
    std::vector<int> preds;                 ///< golden top-1 per image
    /// Golden-correct images first: under AnyMisprediction only they can
    /// flip a fault to Critical, and early exit hits sooner when they lead.
    std::vector<std::size_t> correct_order;
    std::uint64_t correct = 0;  ///< images the golden network gets right
    double accuracy = 0.0;
};

/// Build the cache with one batched forward_all over eval.images.
/// @throws std::invalid_argument on an empty evaluation set.
GoldenCache build_golden_cache(const nn::Network& net,
                               const data::Dataset& eval);

class ClassificationCore {
public:
    /// Clones nothing: operates directly on @p net's weights (restoring
    /// them after every fault). Resolves and deploys the config's
    /// mitigations on @p net (clip rules install a node hook, so the golden
    /// pass measures the hardened network) and caches golden activations.
    ClassificationCore(nn::Network& net, const data::Dataset& eval,
                       ExecutorConfig config = {});

    [[nodiscard]] const ExecutorConfig& config() const noexcept {
        return config_;
    }
    [[nodiscard]] double golden_accuracy() const noexcept {
        return golden_.accuracy;
    }
    [[nodiscard]] const std::vector<int>& golden_predictions() const noexcept {
        return golden_.preds;
    }
    /// Lane-image pairs classified so far: the faulty inferences a
    /// one-fault, one-image classifier would run, a lane retired early
    /// included.
    [[nodiscard]] std::uint64_t inference_count() const noexcept {
        return inferences_;
    }
    /// Of inference_count(), the lane-image pairs that left the ensemble
    /// before the logits because their activations were golden again
    /// (exact early exit). Like the inference count, a function of the
    /// faults alone, never of how they are grouped.
    [[nodiscard]] std::uint64_t retired_count() const noexcept {
        return retired_;
    }

    /// Classify a batch of faults sharing one layer and one ensemble family
    /// (fault::same_ensemble_family — weight-resident models mix freely, a
    /// lane applies its own corruption; activation faults group apart) in a
    /// single blocked pass, writing one outcome per fault into @p out. Any
    /// group size, one included, takes the same path.
    ///
    /// Weight faults: a fault in a TMR-protected layer is outvoted, and a
    /// stuck-at equal to the stored bit changes nothing; both are Masked
    /// without inference. Every other fault becomes a "lane": its dirty
    /// node's output is the golden activation with only the output row the
    /// corrupted weight word feeds recomputed (Layer::forward_row_cached),
    /// then all lanes run the downstream sub-graph together per image, in
    /// the policy's image order, and a lane leaves the batch once decided.
    /// Per image, a lane also leaves the suffix as soon as its activations
    /// are golden again (exact early exit; see the performance model).
    ///
    /// ActivationFlip faults corrupt one element of one node's golden
    /// activation during ONE inference whose image is a pure function of
    /// the fault — (element + bit) mod |eval| — so transient campaigns stay
    /// bit-identical across worker counts, shard splits, and
    /// interrupt/resume points.
    ///
    /// Outcomes and inference counts depend on the faults alone, never on
    /// how they are grouped: grouping is a throughput knob, like the worker
    /// count, never a semantic one.
    /// @throws std::invalid_argument when faults mix layers or families.
    /// @throws std::out_of_range on an activation node or element outside
    ///         the network.
    void evaluate_group(std::span<const fault::Fault> faults,
                        FaultOutcome* out);

    /// Ensemble workspace footprint in bytes, by allocated size (the
    /// benchmark's core.ensemble_mb): the suffix pool and its cut spare,
    /// the materialized entries, the lane and plane buffers, the stacked
    /// input and the row caches.
    [[nodiscard]] std::size_t ensemble_bytes() const noexcept;

    /// Attach telemetry: this core reports into @p session's per-worker
    /// slot @p worker (each engine worker owns exactly one slot — the
    /// lock-free single-writer contract). nullptr detaches; the detached
    /// hot path costs two pointer compares per group and never reads a
    /// clock, and outcomes are identical either way (telemetry only
    /// observes).
    void set_telemetry(telemetry::Session* session,
                       std::size_t worker) noexcept {
        telemetry_ = session;
        worker_ = worker;
    }

    /// Campaign identity for journals/caches: universe size, dtype, policy,
    /// plus CRC32 hashes of the evaluation set and the golden weights. A
    /// retrained model or different eval set fingerprints differently.
    /// Worker count never enters the fingerprint: it cannot change outcomes.
    [[nodiscard]] CampaignFingerprint fingerprint(
        const fault::FaultUniverse& universe, std::string model_id) const;

private:
    void evaluate_weight_group(std::span<const fault::Fault> faults,
                               FaultOutcome* out);
    void evaluate_activation_group(std::span<const fault::Fault> faults,
                                   FaultOutcome* out);
    /// Classify the active lanes on image @p image: each lane's plane of
    /// node @p node's output is recomputed under its fault and clamped,
    /// then run_lanes carries it. Leaves lane_preds_[l] set for every
    /// active lane l.
    void ensemble_weight_step(std::span<const fault::Fault> faults, int node,
                              std::size_t image);
    /// Carry lanes 0..F-1 (running_, with lane_images_ and lane_channels_
    /// set) from dirty node @p node to their predictions, in (image,
    /// channel) order. Per lane, @p frontier(lane, plane) writes the lane's
    /// plane of node's output and returns false when it is golden again;
    /// the region's planes follow, each compared with golden where it is
    /// the lane's only live dirty activation. A surviving lane's row of
    /// each entry of regions_[node] is materialized; the resume node runs
    /// the rows (Layer::forward_resume), then run_suffix. Sets lane_preds_
    /// for every lane.
    template <class Frontier>
    void run_lanes(int node, Frontier&& frontier);
    /// Carry the running_ lanes, node @p node's output stacked in
    /// cut_spare_ and their suffix dependencies in ensemble_golden_,
    /// through the rest of the network in segments ending at cuts, retiring
    /// at each cut the lanes whose output is golden again, and set
    /// lane_preds_ for every lane it was given.
    void run_suffix(int node);
    /// Drop from @p out (node @p node's lane-stacked output, one row per
    /// running_ lane) the rows equal to their image's golden activation bit
    /// for bit, compacting the rest in place; the dropped lanes predict
    /// what the golden logits do.
    void retire_golden_rows(Tensor& out, int node);
    /// Move the step buffers into the entries of regions_[@p node], taking
    /// them back from the previous dirty node's.
    void lend_step_buffers(int node);
    /// Golden output of @p node (the input for kInputId) on image @p image.
    [[nodiscard]] const Tensor& golden_of(std::size_t image, int node) const;

    nn::Network* net_;
    ExecutorConfig config_;
    /// Resolved before injector_/golden_: construction installs the clip
    /// hook on net_, and the golden cache below must see it.
    fault::ResolvedMitigation mitigation_;
    fault::WeightInjector injector_;
    GoldenCache golden_;
    std::uint64_t inferences_ = 0;
    std::uint64_t retired_ = 0;
    telemetry::Session* telemetry_ = nullptr;
    std::size_t worker_ = 0;

    // -- fault-batched ensemble state (grow-only, reused across groups) ----
    /// What a lane dirtied at node d carries, and where it rejoins the
    /// batch: d's channel region (Network::channel_region), a graph walk
    /// made once per node at construction.
    struct Region {
        std::vector<int> dirty;           ///< d, then the region's nodes
        std::vector<std::size_t> offset;  ///< dirty[k]'s plane in a lane's
        std::size_t lane_floats = 0;      ///< one lane's planes together
        /// dirty[k] is the lane's only live dirty activation once computed
        /// (and not the last node): its plane is compared with golden's.
        std::vector<char> checked;
        int resume = -1;  ///< t, or -1 when the region runs to the end
        /// ensemble_golden_ entries a step materializes, lane-stacked and
        /// largest first: t's inputs and the producers older than t that
        /// nodes after t read (the last node's output alone when
        /// resume < 0), each golden with the lane's plane written in where
        /// it is dirty. t's own output goes to cut_spare_ (run_suffix).
        std::vector<int> entries;
        bool needs_input = false;  ///< t or a node after it reads the input
    };
    std::vector<Region> regions_;
    /// Lane-stacked stand-in for the golden cache: while d is the dirty
    /// node, the entries of regions_[d] hold their materialized rows; the
    /// cut a suffix segment resumes from is lent its output for that
    /// segment; every other entry is empty.
    std::vector<Tensor> ensemble_golden_;
    /// The entries' allocations while no dirty node holds them;
    /// lend_step_buffers moves them in and out.
    std::vector<Tensor> step_buffers_;
    int lent_to_ = -1;  ///< dirty node whose entries hold the step buffers
    std::vector<Tensor> ensemble_scratch_;  ///< forward_from's buffer pool
    /// Takes a handed-over cut output's place in the pool, so pool slots
    /// keep an allocation while ensemble_golden_ lends the cut's; between
    /// segments, where the resume node writes its output.
    Tensor cut_spare_;
    Tensor ensemble_input_;  ///< lane-stacked network input, when referenced
    Tensor lane_buf_;        ///< a weight lane's row recompute, one image
    Tensor lane_planes_;     ///< the current lane's planes (Region::offset)
    std::vector<const Tensor*> lane_inputs_;
    std::vector<const float*> plane_inputs_;
    std::vector<nn::ResumeLane> resume_lanes_;
    /// row_cache_[node][image]: input-derived scratch a layer keeps across
    /// forward_row_cached calls (a conv's golden im2col matrix). Valid for
    /// the life of the core — frontier inputs are golden activations, which
    /// never change after construction.
    std::vector<std::vector<Tensor>> row_cache_;
    /// segment_end_[k]: the node a suffix segment starting at k runs to:
    /// the first cut at or after k that a weight layer follows, else the
    /// last node.
    std::vector<int> segment_end_;
    std::vector<std::size_t> active_;       ///< undecided lanes (fault index)
    std::vector<std::uint64_t> lane_correct_;  ///< AccuracyDrop per-lane hits
    // Per step, indexed by lane (weight groups: position in active_;
    // activation groups: fault index): its image, the one channel it
    // differs in, and its prediction.
    std::vector<std::size_t> lane_images_;
    std::vector<std::int64_t> lane_channels_;
    std::vector<int> lane_preds_;
    /// Lanes still in the ensemble, in row order of the stacked tensors.
    std::vector<std::size_t> running_;
};

}  // namespace statfi::core
