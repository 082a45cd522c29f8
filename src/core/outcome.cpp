#include "core/outcome.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/checksum.hpp"
#include "stats/sampling.hpp"

namespace statfi::core {

const char* to_string(ClassificationPolicy policy) noexcept {
    switch (policy) {
        case ClassificationPolicy::AnyMisprediction: return "any-misprediction";
        case ClassificationPolicy::GoldenMismatch: return "golden-mismatch";
        case ClassificationPolicy::AccuracyDrop: return "accuracy-drop";
    }
    return "?";
}

std::uint64_t CampaignResult::total_injected() const {
    std::uint64_t total = 0;
    for (const auto& sp : subpops) total += sp.injected;
    return total;
}

std::uint64_t CampaignResult::total_critical() const {
    std::uint64_t total = 0;
    for (const auto& sp : subpops) total += sp.critical;
    return total;
}

double CampaignResult::critical_rate() const {
    const auto injected = total_injected();
    return injected ? static_cast<double>(total_critical()) /
                          static_cast<double>(injected)
                    : 0.0;
}

CampaignResult make_empty_result(std::size_t layer_count,
                                 const CampaignPlan& plan) {
    CampaignResult result;
    result.approach = plan.approach;
    result.spec = plan.spec;
    result.subpops.resize(plan.subpops.size());
    for (std::size_t s = 0; s < plan.subpops.size(); ++s) {
        auto& tally = result.subpops[s];
        tally.plan = plan.subpops[s];
        if (tally.plan.layer < 0) {
            tally.layer_injected.assign(layer_count, 0);
            tally.layer_critical.assign(layer_count, 0);
        }
    }
    return result;
}

void accumulate_outcome(SubpopResult& tally, int layer, FaultOutcome outcome) {
    ++tally.injected;
    if (outcome == FaultOutcome::Critical) ++tally.critical;
    if (outcome == FaultOutcome::Masked) ++tally.masked;
    if (!tally.layer_injected.empty()) {
        const auto l = static_cast<std::size_t>(layer);
        ++tally.layer_injected.at(l);
        if (outcome == FaultOutcome::Critical) ++tally.layer_critical.at(l);
    }
}

// ----------------------------------------------------- ExhaustiveOutcomes --

ExhaustiveOutcomes::ExhaustiveOutcomes(std::uint64_t universe_size)
    : outcomes_(universe_size,
                static_cast<std::uint8_t>(FaultOutcome::NonCritical)) {}

ExhaustiveOutcomes::ExhaustiveOutcomes(const ExhaustiveOutcomes& other)
    : outcomes_(other.outcomes_) {}

ExhaustiveOutcomes& ExhaustiveOutcomes::operator=(
    const ExhaustiveOutcomes& other) {
    outcomes_ = other.outcomes_;
    prefix_.clear();
    index_stale_.store(true, std::memory_order_relaxed);
    return *this;
}

ExhaustiveOutcomes::ExhaustiveOutcomes(ExhaustiveOutcomes&& other) noexcept
    : outcomes_(std::move(other.outcomes_)) {}

ExhaustiveOutcomes& ExhaustiveOutcomes::operator=(
    ExhaustiveOutcomes&& other) noexcept {
    outcomes_ = std::move(other.outcomes_);
    prefix_.clear();
    index_stale_.store(true, std::memory_order_relaxed);
    return *this;
}

const std::vector<std::uint64_t>& ExhaustiveOutcomes::prefix() const {
    if (index_stale_.load(std::memory_order_relaxed) ||
        prefix_.size() != outcomes_.size() + 1) {
        prefix_.resize(outcomes_.size() + 1);
        prefix_[0] = 0;
        for (std::size_t i = 0; i < outcomes_.size(); ++i)
            prefix_[i + 1] =
                prefix_[i] + (outcomes_[i] ==
                              static_cast<std::uint8_t>(FaultOutcome::Critical));
        index_stale_.store(false, std::memory_order_relaxed);
    }
    return prefix_;
}

std::uint64_t ExhaustiveOutcomes::critical_count(std::uint64_t begin,
                                                 std::uint64_t end) const {
    if (begin > end || end > outcomes_.size())
        throw std::out_of_range("ExhaustiveOutcomes: bad range");
    const auto& p = prefix();
    return p[end] - p[begin];
}

double ExhaustiveOutcomes::critical_rate(std::uint64_t begin,
                                         std::uint64_t end) const {
    if (begin >= end) return 0.0;
    return static_cast<double>(critical_count(begin, end)) /
           static_cast<double>(end - begin);
}

double ExhaustiveOutcomes::layer_critical_rate(const fault::FaultUniverse& u,
                                               int layer) const {
    const std::uint64_t begin = u.subpop_offset(layer, 0);
    return critical_rate(begin, begin + u.layer_population(layer));
}

double ExhaustiveOutcomes::subpop_critical_rate(const fault::FaultUniverse& u,
                                                int layer, int bit) const {
    const std::uint64_t begin = u.subpop_offset(layer, bit);
    return critical_rate(begin, begin + u.bit_population(layer));
}

double ExhaustiveOutcomes::network_critical_rate() const {
    return critical_rate(0, outcomes_.size());
}

namespace {
constexpr char kOutcomeMagic[4] = {'S', 'F', 'I', 'O'};
// v2 adds the version word and a CRC32 trailer over the payload; v1 files
// (no version, no checksum) fail the version check and are regenerated.
constexpr std::uint32_t kOutcomeVersion = 2;
constexpr std::size_t kOutcomeHeaderSize =
    sizeof(kOutcomeMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

std::string hex32(std::uint32_t v) {
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}
}  // namespace

void ExhaustiveOutcomes::save(const std::string& path) const {
    io::write_file_atomic(path, [&](std::ostream& os) {
        os.write(kOutcomeMagic, sizeof(kOutcomeMagic));
        const std::uint32_t version = kOutcomeVersion;
        os.write(reinterpret_cast<const char*>(&version), sizeof(version));
        const std::uint64_t size = outcomes_.size();
        os.write(reinterpret_cast<const char*>(&size), sizeof(size));
        os.write(reinterpret_cast<const char*>(outcomes_.data()),
                 static_cast<std::streamsize>(outcomes_.size()));
        const std::uint32_t checksum =
            io::crc32(outcomes_.data(), outcomes_.size());
        os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    });
}

ExhaustiveOutcomes ExhaustiveOutcomes::load(const std::string& path) {
    const auto fail = [&](const std::string& why) -> std::runtime_error {
        return std::runtime_error("ExhaustiveOutcomes::load: " + why + " in " +
                                  path);
    };
    std::string bytes;
    if (!io::read_file(path, bytes))
        throw std::runtime_error("ExhaustiveOutcomes::load: cannot open " + path);
    if (bytes.empty()) throw fail("empty file (0 bytes)");
    if (bytes.size() < kOutcomeHeaderSize)
        throw fail("short header (" + std::to_string(bytes.size()) +
                   " bytes, need " + std::to_string(kOutcomeHeaderSize) + ")");
    if (bytes.compare(0, sizeof(kOutcomeMagic), kOutcomeMagic,
                      sizeof(kOutcomeMagic)) != 0)
        throw fail("bad magic (want \"SFIO\")");
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(kOutcomeMagic), sizeof(version));
    if (version != kOutcomeVersion)
        throw fail("unsupported version " + std::to_string(version) +
                   " (supported: " + std::to_string(kOutcomeVersion) + ")");
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data() + sizeof(kOutcomeMagic) + sizeof(version),
                sizeof(size));
    const std::uint64_t expected =
        kOutcomeHeaderSize + size + sizeof(std::uint32_t);
    if (bytes.size() != expected)
        throw fail("truncated payload (header promises " +
                   std::to_string(size) + " outcomes = " +
                   std::to_string(expected) + " bytes, file has " +
                   std::to_string(bytes.size()) + ")");
    const char* payload = bytes.data() + kOutcomeHeaderSize;
    std::uint32_t stored = 0;
    std::memcpy(&stored, payload + size, sizeof(stored));
    const std::uint32_t computed = io::crc32(payload, size);
    if (stored != computed)
        throw fail("checksum mismatch (stored " + hex32(stored) +
                   ", computed " + hex32(computed) + ")");
    ExhaustiveOutcomes out(size);
    std::memcpy(out.outcomes_.data(), payload, size);
    return out;
}

// ----------------------------------------------------------------- replay --

std::uint64_t subpop_base(const fault::FaultUniverse& universe,
                          const SubpopPlan& sp) {
    return sp.layer < 0 ? 0
                        : universe.subpop_offset(sp.layer, std::max(sp.bit, 0));
}

CampaignResult replay(const fault::FaultUniverse& universe,
                      const CampaignPlan& plan,
                      const ExhaustiveOutcomes& outcomes, stats::Rng rng) {
    if (outcomes.size() != universe.total())
        throw std::invalid_argument("replay: outcome table size mismatch");
    CampaignResult result = make_empty_result(
        static_cast<std::size_t>(universe.layer_count()), plan);
    for (std::size_t s = 0; s < plan.subpops.size(); ++s) {
        const auto& sp = plan.subpops[s];
        auto stream = rng.fork(s);
        const std::uint64_t base = subpop_base(universe, sp);
        for (const std::uint64_t local :
             stats::sample_indices(sp.population, sp.sample_size, stream)) {
            // Only spanning subpopulations need the (costlier) decode to
            // attribute the fault to a layer.
            const int layer =
                sp.layer >= 0 ? sp.layer : universe.decode(base + local).layer;
            accumulate_outcome(result.subpops[s], layer,
                               outcomes.at(base + local));
        }
    }
    return result;
}

}  // namespace statfi::core
