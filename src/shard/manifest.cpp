#include "shard/manifest.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "io/artifact.hpp"
#include "io/checksum.hpp"
#include "models/registry.hpp"

namespace statfi::shard {

namespace {

constexpr char kManifestMagic[4] = {'S', 'F', 'I', 'M'};
// v2 adds the fault-model spec + mitigation config to the recipe and the
// fault_model/mbu_k/mitigation_hash fields to the fingerprint.
constexpr std::uint32_t kManifestVersion = 2;

// --- payload encode/decode (machine-local byte order, like every other
// statfi artifact) ---------------------------------------------------------

void put_u8(std::string& buf, std::uint8_t v) {
    buf.push_back(static_cast<char>(v));
}
void put_u32(std::string& buf, std::uint32_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_u64(std::string& buf, std::uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_i32(std::string& buf, std::int32_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::string& buf, double v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_string(std::string& buf, const std::string& s) {
    put_u32(buf, static_cast<std::uint32_t>(s.size()));
    buf.append(s);
}

/// Bounds-checked cursor over a decoded payload; any overrun means a
/// truncated or internally inconsistent artifact.
struct Reader {
    const std::string& buf;
    std::size_t pos = 0;

    void need(std::size_t n) const {
        if (pos + n > buf.size())
            throw std::runtime_error(
                "shard manifest: truncated payload (field at byte " +
                std::to_string(pos) + " overruns " +
                std::to_string(buf.size()) + "-byte payload)");
    }
    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(buf[pos++]);
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v;
        std::memcpy(&v, buf.data() + pos, sizeof(v));
        pos += sizeof(v);
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v;
        std::memcpy(&v, buf.data() + pos, sizeof(v));
        pos += sizeof(v);
        return v;
    }
    std::int32_t i32() {
        need(4);
        std::int32_t v;
        std::memcpy(&v, buf.data() + pos, sizeof(v));
        pos += sizeof(v);
        return v;
    }
    double f64() {
        need(8);
        double v;
        std::memcpy(&v, buf.data() + pos, sizeof(v));
        pos += sizeof(v);
        return v;
    }
    std::string str() {
        const std::uint32_t n = u32();
        need(n);
        std::string s = buf.substr(pos, n);
        pos += n;
        return s;
    }
};

std::string encode(const ShardManifest& m) {
    std::string body;
    // recipe
    put_string(body, m.recipe.model);
    put_u8(body, static_cast<std::uint8_t>(m.recipe.approach));
    put_f64(body, m.recipe.error_margin);
    put_f64(body, m.recipe.confidence);
    put_u64(body, static_cast<std::uint64_t>(m.recipe.images));
    put_u8(body, static_cast<std::uint8_t>(m.recipe.policy));
    put_f64(body, m.recipe.accuracy_drop_threshold);
    put_u8(body, m.recipe.train ? 1 : 0);
    put_u8(body, static_cast<std::uint8_t>(m.recipe.dtype));
    put_u64(body, m.recipe.seed);
    put_u8(body, static_cast<std::uint8_t>(m.recipe.fault_model.kind));
    put_i32(body, m.recipe.fault_model.mbu_k);
    put_u32(body, static_cast<std::uint32_t>(m.recipe.mitigation.clips.size()));
    for (const auto& clip : m.recipe.mitigation.clips) {
        put_string(body, clip.node);
        put_f64(body, clip.lo);
        put_f64(body, clip.hi);
    }
    put_u32(body, static_cast<std::uint32_t>(m.recipe.mitigation.tmr.size()));
    for (const auto& tmr : m.recipe.mitigation.tmr) put_string(body, tmr.layer);
    // fingerprint
    put_string(body, m.fingerprint.model_id);
    put_u64(body, m.fingerprint.universe_size);
    put_u8(body, m.fingerprint.dtype);
    put_u8(body, m.fingerprint.policy);
    put_f64(body, m.fingerprint.accuracy_drop_threshold);
    put_u32(body, m.fingerprint.eval_hash);
    put_u32(body, m.fingerprint.weights_hash);
    put_u8(body, m.fingerprint.fault_model);
    put_u8(body, m.fingerprint.mbu_k);
    put_u32(body, m.fingerprint.mitigation_hash);
    // plan
    put_u8(body, static_cast<std::uint8_t>(m.plan.approach));
    put_f64(body, m.plan.spec.error_margin);
    put_f64(body, m.plan.spec.confidence);
    put_f64(body, m.plan.spec.p);
    put_u8(body, static_cast<std::uint8_t>(m.plan.spec.mode));
    put_u64(body, m.plan.subpops.size());
    for (const auto& sp : m.plan.subpops) {
        put_i32(body, sp.layer);
        put_i32(body, sp.bit);
        put_u64(body, sp.population);
        put_f64(body, sp.p);
        put_u64(body, sp.sample_size);
    }
    // item space + shards
    put_u32(body, m.layer_count);
    put_u64(body, m.item_count);
    put_u32(body, static_cast<std::uint32_t>(m.shards.size()));
    for (const auto& range : m.shards) {
        put_u64(body, range.begin);
        put_u64(body, range.end);
    }
    return body;
}

ShardManifest decode(const std::string& body) {
    Reader in{body};
    ShardManifest m;
    m.recipe.model = in.str();
    m.recipe.approach = static_cast<core::Approach>(in.u8());
    m.recipe.error_margin = in.f64();
    m.recipe.confidence = in.f64();
    m.recipe.images = static_cast<std::int64_t>(in.u64());
    m.recipe.policy = static_cast<core::ClassificationPolicy>(in.u8());
    m.recipe.accuracy_drop_threshold = in.f64();
    m.recipe.train = in.u8() != 0;
    m.recipe.dtype = static_cast<fault::DataType>(in.u8());
    m.recipe.seed = in.u64();
    m.recipe.fault_model.kind = static_cast<fault::FaultModelKind>(in.u8());
    m.recipe.fault_model.mbu_k = in.i32();
    const std::uint32_t clip_count = in.u32();
    m.recipe.mitigation.clips.reserve(clip_count);
    for (std::uint32_t c = 0; c < clip_count; ++c) {
        fault::ClipRule clip;
        clip.node = in.str();
        clip.lo = static_cast<float>(in.f64());
        clip.hi = static_cast<float>(in.f64());
        m.recipe.mitigation.clips.push_back(std::move(clip));
    }
    const std::uint32_t tmr_count = in.u32();
    m.recipe.mitigation.tmr.reserve(tmr_count);
    for (std::uint32_t t = 0; t < tmr_count; ++t)
        m.recipe.mitigation.tmr.push_back(fault::TmrRule{in.str()});
    m.fingerprint.model_id = in.str();
    m.fingerprint.universe_size = in.u64();
    m.fingerprint.dtype = in.u8();
    m.fingerprint.policy = in.u8();
    m.fingerprint.accuracy_drop_threshold = in.f64();
    m.fingerprint.eval_hash = in.u32();
    m.fingerprint.weights_hash = in.u32();
    m.fingerprint.fault_model = in.u8();
    m.fingerprint.mbu_k = in.u8();
    m.fingerprint.mitigation_hash = in.u32();
    m.plan.approach = static_cast<core::Approach>(in.u8());
    m.plan.spec.error_margin = in.f64();
    m.plan.spec.confidence = in.f64();
    m.plan.spec.p = in.f64();
    m.plan.spec.mode = static_cast<stats::ConfidenceCoefficient>(in.u8());
    const std::uint64_t subpops = in.u64();
    m.plan.subpops.reserve(subpops);
    for (std::uint64_t s = 0; s < subpops; ++s) {
        core::SubpopPlan sp;
        sp.layer = in.i32();
        sp.bit = in.i32();
        sp.population = in.u64();
        sp.p = in.f64();
        sp.sample_size = in.u64();
        m.plan.subpops.push_back(sp);
    }
    m.layer_count = in.u32();
    m.item_count = in.u64();
    const std::uint32_t shard_count = in.u32();
    m.shards.reserve(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        ShardRange range;
        range.begin = in.u64();
        range.end = in.u64();
        m.shards.push_back(range);
    }
    if (in.pos != body.size())
        throw std::runtime_error("shard manifest: " +
                                 std::to_string(body.size() - in.pos) +
                                 " trailing payload byte(s)");
    return m;
}

}  // namespace

CampaignKind campaign_kind(const CampaignRecipe& recipe) noexcept {
    return recipe.approach == core::Approach::Exhaustive
               ? CampaignKind::Census
               : CampaignKind::Statistical;
}

const char* policy_name(core::ClassificationPolicy policy) noexcept {
    switch (policy) {
        case core::ClassificationPolicy::AnyMisprediction: return "any";
        case core::ClassificationPolicy::GoldenMismatch: return "golden";
        case core::ClassificationPolicy::AccuracyDrop: return "drop";
    }
    return "any";
}

CampaignRecipe make_recipe(RecipeInput input) {
    CampaignRecipe& r = input.recipe;
    const auto fail = [](const std::string& what) {
        throw std::invalid_argument(what);
    };
    bool known_model = false;
    for (const auto& info : models::available_models())
        known_model = known_model || info.name == r.model;
    if (!known_model) fail("unknown model '" + r.model + "'");
    r.fault_model = fault::fault_model_from_string(input.fault_model);
    const bool mbu = r.fault_model.kind == fault::FaultModelKind::MultiBitUpset;
    if (input.mbu_k && !mbu) fail("'mbu_k' applies to the mbu fault model only");
    const std::int64_t mbu_k = input.mbu_k.value_or(r.fault_model.mbu_k);
    if (mbu && (mbu_k < 2 || mbu_k > 16)) fail("'mbu_k' must be in [2,16]");
    r.fault_model.mbu_k = static_cast<int>(mbu_k);
    bool known_policy = false;
    for (const auto policy : {core::ClassificationPolicy::AnyMisprediction,
                              core::ClassificationPolicy::GoldenMismatch,
                              core::ClassificationPolicy::AccuracyDrop})
        if (input.policy == policy_name(policy)) {
            r.policy = policy;
            known_policy = true;
        }
    if (!known_policy)
        fail("unknown policy '" + input.policy + "' (expected any|golden|drop)");
    const bool weight_bits =
        r.fault_model.kind == fault::FaultModelKind::WeightStuckAt ||
        r.fault_model.kind == fault::FaultModelKind::WeightBitFlip;
    r.approach = !input.approach.empty()
                     ? core::approach_from_string(input.approach)
                 : weight_bits ? core::Approach::DataAware
                               : core::Approach::LayerWise;
    if (r.error_margin <= 0 || r.error_margin >= 1)
        fail("'margin' must be in (0,1)");
    if (r.confidence <= 0 || r.confidence >= 1)
        fail("'confidence' must be in (0,1)");
    if (r.images <= 0) fail("'images' must be positive");
    return r;
}

const char* to_string(CampaignKind kind) noexcept {
    switch (kind) {
        case CampaignKind::Census: return "census";
        case CampaignKind::Statistical: return "statistical";
    }
    return "?";
}

std::uint32_t ShardManifest::crc() const {
    const std::string body = encode(*this);
    return io::crc32(body.data(), body.size());
}

void ShardManifest::validate() const {
    const auto fail = [](const std::string& why) -> std::invalid_argument {
        return std::invalid_argument("shard manifest: " + why);
    };
    if (shards.empty()) throw fail("no shards");
    if (item_count == 0) throw fail("empty item space");
    if (kind() == CampaignKind::Census) {
        if (item_count != fingerprint.universe_size)
            throw fail("census item count " + std::to_string(item_count) +
                       " != universe size " +
                       std::to_string(fingerprint.universe_size));
    } else {
        if (item_count != plan.total_sample_size())
            throw fail("statistical item count " + std::to_string(item_count) +
                       " != plan sample size " +
                       std::to_string(plan.total_sample_size()));
    }
    std::uint64_t expected_begin = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto& range = shards[s];
        const std::string id = "shard " + std::to_string(s) + " range [" +
                               std::to_string(range.begin) + ", " +
                               std::to_string(range.end) + ")";
        if (range.begin >= range.end) throw fail(id + " is empty");
        if (range.begin > expected_begin)
            throw fail("shard ranges leave a gap: " + id + " starts after " +
                       std::to_string(expected_begin));
        if (range.begin < expected_begin)
            throw fail("shard ranges overlap: " + id + " starts before " +
                       std::to_string(expected_begin));
        expected_begin = range.end;
    }
    if (expected_begin != item_count)
        throw fail("shard ranges cover " + std::to_string(expected_begin) +
                   " of " + std::to_string(item_count) + " items");
}

void ShardManifest::save(const std::string& path) const {
    validate();
    io::write_framed_atomic(path, kManifestMagic, kManifestVersion,
                            encode(*this));
}

ShardManifest ShardManifest::load(const std::string& path) {
    const std::string body =
        io::read_framed(path, kManifestMagic, kManifestVersion,
                        "shard manifest");
    ShardManifest m = decode(body);
    m.validate();
    return m;
}

std::vector<ShardRange> partition_items(std::uint64_t item_count,
                                        std::uint32_t count) {
    if (count == 0)
        throw std::invalid_argument("partition_items: zero shards");
    if (count > item_count)
        throw std::invalid_argument(
            "partition_items: " + std::to_string(count) +
            " shards over " + std::to_string(item_count) +
            " items would leave empty shards");
    std::vector<ShardRange> ranges;
    ranges.reserve(count);
    const std::uint64_t base = item_count / count;
    const std::uint64_t extra = item_count % count;
    std::uint64_t begin = 0;
    for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint64_t size = base + (s < extra ? 1 : 0);
        ranges.push_back(ShardRange{begin, begin + size});
        begin += size;
    }
    return ranges;
}

namespace {
std::string sibling(const std::string& manifest_path, std::uint32_t shard,
                    const char* extension) {
    const std::filesystem::path dir =
        std::filesystem::path(manifest_path).parent_path();
    return (dir / ("shard_" + std::to_string(shard) + extension)).string();
}
}  // namespace

std::string shard_result_path(const std::string& manifest_path,
                              std::uint32_t shard) {
    return sibling(manifest_path, shard, ".sfis");
}

std::string shard_journal_path(const std::string& manifest_path,
                               std::uint32_t shard) {
    return sibling(manifest_path, shard, ".sfij");
}

}  // namespace statfi::shard
