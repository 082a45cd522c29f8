#include "service/recipe_json.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "formats/format.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace statfi::service {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("recipe: " + what);
}

std::string need_str(const std::string& key, const report::JsonValue& v) {
    if (v.type != report::JsonValue::Type::String)
        fail("'" + key + "' must be a string");
    return v.string;
}

double need_num(const std::string& key, const report::JsonValue& v) {
    if (v.type != report::JsonValue::Type::Number)
        fail("'" + key + "' must be a number");
    return v.number;
}

bool need_bool(const std::string& key, const report::JsonValue& v) {
    if (v.type != report::JsonValue::Type::Bool)
        fail("'" + key + "' must be a boolean");
    return v.boolean;
}

std::uint64_t need_uint(const std::string& key, const report::JsonValue& v) {
    const double n = need_num(key, v);
    if (n < 0 || n != std::floor(n))
        fail("'" + key + "' must be a non-negative integer");
    return static_cast<std::uint64_t>(n);
}

fault::DataType parse_format(const std::string& key,
                             const report::JsonValue& v) {
    try {
        return formats::parse_format(need_str(key, v));
    } catch (const std::invalid_argument& e) {
        fail(e.what());
    }
}

}  // namespace

Submission parse_submission(const std::string& body) {
    // Submissions are small by construction; a tight per-parse bound keeps
    // a hostile body from costing anything before it is rejected.
    report::JsonParseLimits limits;
    limits.max_depth = 8;
    limits.max_bytes = 64 * 1024;
    report::JsonValue doc;
    try {
        doc = report::parse_json(body, limits);
    } catch (const std::runtime_error& e) {
        fail(e.what());
    }
    if (!doc.is_object()) fail("the submission must be a JSON object");

    Submission sub;
    shard::RecipeInput input;
    shard::CampaignRecipe& r = input.recipe;
    // "format" and "dtype" name the same field; remember which spellings
    // appeared so a submission saying both (with different values) is a
    // contradiction, not a silent last-one-wins.
    std::optional<fault::DataType> dtype, format;
    for (const auto& [key, value] : doc.object) {
        if (key == "model") {
            r.model = need_str(key, value);
        } else if (key == "approach") {
            input.approach = need_str(key, value);
        } else if (key == "fault_model") {
            input.fault_model = need_str(key, value);
        } else if (key == "mbu_k") {
            input.mbu_k = static_cast<std::int64_t>(need_uint(key, value));
        } else if (key == "margin") {
            r.error_margin = need_num(key, value);
        } else if (key == "confidence") {
            r.confidence = need_num(key, value);
        } else if (key == "images") {
            r.images = static_cast<std::int64_t>(need_uint(key, value));
        } else if (key == "policy") {
            input.policy = need_str(key, value);
        } else if (key == "drop_threshold") {
            r.accuracy_drop_threshold = need_num(key, value);
        } else if (key == "train") {
            r.train = need_bool(key, value);
        } else if (key == "dtype") {
            dtype = parse_format(key, value);
        } else if (key == "format") {
            format = parse_format(key, value);
        } else if (key == "seed") {
            r.seed = need_uint(key, value);
        } else if (key == "clips") {
            if (!value.is_array()) fail("'clips' must be an array");
            for (const report::JsonValue& c : value.array) {
                if (!c.is_object())
                    fail("each clip must be {node, lo, hi}");
                fault::ClipRule rule;
                for (const auto& [ck, cv] : c.object) {
                    if (ck == "node") rule.node = need_str("clips.node", cv);
                    else if (ck == "lo")
                        rule.lo = static_cast<float>(need_num("clips.lo", cv));
                    else if (ck == "hi")
                        rule.hi = static_cast<float>(need_num("clips.hi", cv));
                    else
                        fail("unknown clip key '" + ck + "'");
                }
                if (rule.node.empty()) fail("each clip needs a 'node'");
                r.mitigation.clips.push_back(std::move(rule));
            }
        } else if (key == "tmr") {
            if (!value.is_array()) fail("'tmr' must be an array");
            for (const report::JsonValue& t : value.array) {
                if (t.type != report::JsonValue::Type::String)
                    fail("each tmr entry must be a layer name string");
                r.mitigation.tmr.push_back(fault::TmrRule{t.string});
            }
        } else if (key == "shards") {
            sub.shards = static_cast<std::uint32_t>(need_uint(key, value));
        } else {
            fail("unknown key '" + key + "'");
        }
    }

    if (dtype && format && *dtype != *format)
        fail("'format' and 'dtype' disagree (they are aliases)");
    r.dtype = dtype.value_or(format.value_or(fault::DataType::Float32));
    if (sub.shards > 4096) fail("'shards' must be at most 4096");
    // The rules the CLI applies too, so a submission can never describe a
    // campaign the CLI could not run, and the two plan alike.
    try {
        sub.recipe = shard::make_recipe(std::move(input));
    } catch (const std::invalid_argument& e) {
        fail(e.what());
    }
    return sub;
}

std::string canonical_recipe_json(const shard::CampaignRecipe& recipe) {
    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object()
        .field("model", recipe.model)
        .field("approach", core::to_string(recipe.approach))
        .field("fault_model", recipe.fault_model.describe())
        .field("margin", recipe.error_margin)
        .field("confidence", recipe.confidence)
        .field("images", static_cast<std::int64_t>(recipe.images))
        .field("policy", shard::policy_name(recipe.policy))
        .field("drop_threshold", recipe.accuracy_drop_threshold)
        .field("train", recipe.train)
        .field("dtype", fault::to_string(recipe.dtype))
        .field("seed", recipe.seed);
    json.key("clips").begin_array();
    for (const fault::ClipRule& c : recipe.mitigation.clips)
        json.begin_object()
            .field("node", c.node)
            .field("lo", static_cast<double>(c.lo))
            .field("hi", static_cast<double>(c.hi))
            .end_object();
    json.end_array();
    json.key("tmr").begin_array();
    for (const fault::TmrRule& t : recipe.mitigation.tmr) json.value(t.layer);
    json.end_array().end_object();
    // No finish(): the canonical form is the document alone, no newline.
    return out.str();
}

std::string recipe_fingerprint(const shard::CampaignRecipe& recipe) {
    const std::string canon = canonical_recipe_json(recipe);
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64 offset basis
    for (const char c : canon) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    static const char* hex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = hex[h & 0xF];
        h >>= 4;
    }
    return out;
}

}  // namespace statfi::service
