#include "report/observatory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace statfi::report {

namespace {

// ---------------------------------------------------------------------------
// model building
// ---------------------------------------------------------------------------

[[noreturn]] void schema_error(std::size_t line, const std::string& what) {
    throw std::runtime_error("eventlog line " + std::to_string(line + 1) +
                             ": " + what);
}

}  // namespace

const ObservatoryModel::Stratum* ObservatoryModel::find_stratum(
    int layer, int bit) const {
    for (const Stratum& s : strata)
        if (s.layer == layer && s.bit == bit) return &s;
    return nullptr;
}

void fold_event(ObservatoryModel& m, const JsonValue& e) {
    const std::uint64_t i = m.event_count;
    if (!e.is_object()) schema_error(i, "event is not a JSON object");
    if (e.get_int("v", -1) != 1)
        schema_error(i, "unsupported schema version (want v:1)");
    if (e.get_uint("seq", ~0ULL) != i)
        schema_error(i, "sequence gap: expected seq " + std::to_string(i));
    const std::string type = e.get_str("type");
    if (type.empty()) schema_error(i, "missing event type");
    if (i == 0 && type != "campaign_header")
        schema_error(i, "first event must be campaign_header, got " + type);

    if (type == "campaign_header") {
        m.command = e.get_str("command");
        m.model = e.get_str("model");
        m.approach = e.get_str("approach");
        m.dtype = e.get_str("dtype");
        m.format = e.get_str("format");
        if (m.format.empty()) m.format = m.dtype;  // pre-format logs
        m.policy = e.get_str("policy");
        m.seed = e.get_uint("seed");
        m.images = e.get_int("images");
        m.confidence = e.get_num("confidence", 0.99);
        m.error_margin = e.get_num("error_margin", 0.01);
        m.fault_model = e.get_str("fault_model");
        m.mitigation = e.get_str("mitigation");
    } else if (type == "plan") {
        m.universe = e.get_uint("universe");
        m.planned = e.get_uint("planned");
        m.strata_planned = e.get_uint("strata");
        m.bits = static_cast<int>(e.get_int("bits"));
        if (m.approach.empty()) m.approach = e.get_str("approach");
        if (m.fault_model.empty()) m.fault_model = e.get_str("fault_model");
        m.layers.clear();
        if (const JsonValue* layers = e.find("layers"))
            for (const JsonValue& l : layers->array)
                m.layers.push_back({static_cast<int>(l.get_int("layer", -1)),
                                    l.get_str("name"),
                                    l.get_uint("population")});
    } else if (type == "phase_begin") {
        m.open_phases.push_back(e.get_str("phase"));
    } else if (type == "phase_end") {
        const std::string phase = e.get_str("phase");
        const auto open =
            std::find(m.open_phases.rbegin(), m.open_phases.rend(), phase);
        if (open != m.open_phases.rend())
            m.open_phases.erase(std::next(open).base());
        // Totals by phase name in first-seen order (nested and repeated
        // phases sum their durations).
        auto it = std::find_if(m.phases.begin(), m.phases.end(),
                               [&](const auto& p) { return p.name == phase; });
        if (it == m.phases.end())
            it = m.phases.insert(it, ObservatoryModel::Phase{phase, 0.0, 0});
        it->seconds += e.get_num("seconds");
        it->count += 1;
    } else if (type == "stratum_update") {
        const std::uint64_t id = e.get_uint("stratum");
        auto [it, fresh] = m.stratum_index.try_emplace(id, m.strata.size());
        if (fresh) {
            ObservatoryModel::Stratum s;
            s.id = id;
            s.layer = static_cast<int>(e.get_int("layer", -1));
            s.bit = static_cast<int>(e.get_int("bit", -1));
            s.population = e.get_uint("population");
            s.planned = e.get_uint("planned");
            m.strata.push_back(std::move(s));
        }
        ObservatoryModel::Point p;
        p.done = e.get_uint("done");
        p.critical = e.get_uint("critical");
        p.p_hat = e.get_num("p_hat");
        p.wilson_lo = e.get_num("wilson_lo");
        p.wilson_hi = e.get_num("wilson_hi", 1.0);
        p.wald_lo = e.get_num("wald_lo");
        p.wald_hi = e.get_num("wald_hi", 1.0);
        m.strata[it->second].points.push_back(p);
    } else if (type == "resume") {
        m.resumed += e.get_uint("replayed");
    } else if (type == "shard_begin") {
        ObservatoryModel::Shard s;
        s.shard = e.get_uint("shard");
        s.range_begin = e.get_uint("range_begin");
        s.range_end = e.get_uint("range_end");
        m.shards.push_back(s);
    } else if (type == "shard_end") {
        const std::uint64_t id = e.get_uint("shard");
        for (auto it = m.shards.rbegin(); it != m.shards.rend(); ++it)
            if (it->shard == id) {
                it->ended = true;
                it->complete = e.get_bool("complete");
                it->resumed = e.get_uint("resumed");
                it->classified = e.get_uint("classified");
                break;
            }
    } else if (type == "merge_artifact") {
        m.merge_artifacts += 1;
    } else if (type == "campaign_end") {
        m.finished = true;
        m.complete = e.get_str("outcome") == "complete";
        m.injected = e.get_uint("injected");
        m.critical = e.get_uint("critical");
        m.wall_seconds = e.get_num("wall_seconds");
    }
    // Unknown (forward-compatible) types carry no model state.
    m.ts = e.get_num("ts");
    m.event_count = i + 1;
}

ObservatoryModel model_from_events(const std::vector<JsonValue>& events) {
    ObservatoryModel m;
    for (const JsonValue& e : events) fold_event(m, e);
    return m;
}

ObservatoryModel load_event_log(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("observatory: cannot read event log " +
                                 path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (text.empty())
        throw std::runtime_error("observatory: event log " + path +
                                 " is empty");
    return model_from_events(parse_json_lines(text));
}

// ---------------------------------------------------------------------------
// HTML rendering
// ---------------------------------------------------------------------------

namespace {

std::string html_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out += c;
        }
    }
    return out;
}

std::string fmt_g(double v, int sig = 4) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*g", sig, v);
    return buf;
}

std::string fmt_pct(double fraction) { return fmt_g(fraction * 100.0, 3) + "%"; }

std::string fmt_count(std::uint64_t v) {
    // Thousands separators keep universe-scale numbers readable.
    std::string digits = std::to_string(v);
    std::string out;
    const std::size_t n = digits.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i && (n - i) % 3 == 0) out += ',';
        out += digits[i];
    }
    return out;
}

std::string fmt_seconds(double s) {
    if (s >= 3600.0)
        return fmt_g(s / 3600.0, 3) + " h";
    if (s >= 60.0) return fmt_g(s / 60.0, 3) + " min";
    if (s >= 1.0) return fmt_g(s, 3) + " s";
    return fmt_g(s * 1e3, 3) + " ms";
}

/// Sequential blue ramp (light -> dark), the repo's magnitude scale. Stops
/// validated against the dataviz palette: one hue, monotonic lightness.
struct Rgb {
    int r, g, b;
};

constexpr Rgb kRampStops[] = {
    {0xe9, 0xf1, 0xfc}, {0xcd, 0xe2, 0xfb}, {0xa7, 0xc9, 0xf2},
    {0x7f, 0xaa, 0xe4}, {0x56, 0x88, 0xcf}, {0x36, 0x67, 0xb2},
    {0x1f, 0x4a, 0x8f}, {0x0d, 0x36, 0x6b},
};

std::string ramp_color(double t) {
    t = std::clamp(t, 0.0, 1.0);
    constexpr int kStops = static_cast<int>(std::size(kRampStops));
    const double scaled = t * (kStops - 1);
    const int lo = std::min(static_cast<int>(scaled), kStops - 2);
    const double f = scaled - lo;
    const Rgb& a = kRampStops[lo];
    const Rgb& b = kRampStops[lo + 1];
    char buf[8];
    std::snprintf(buf, sizeof(buf), "#%02x%02x%02x",
                  static_cast<int>(std::lround(a.r + f * (b.r - a.r))),
                  static_cast<int>(std::lround(a.g + f * (b.g - a.g))),
                  static_cast<int>(std::lround(a.b + f * (b.b - a.b))));
    return buf;
}

/// Shared document shell: inline CSS only, ink/surface tokens, no external
/// references anywhere (no href, no src — asserted by tests).
void open_document(std::ostringstream& out, const std::string& title,
                   std::uint64_t strata_marker,
                   const std::string& extra_meta) {
    out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        << "<meta charset=\"utf-8\">\n"
        << "<meta name=\"viewport\" content=\"width=device-width, "
           "initial-scale=1\">\n"
        << "<meta name=\"generator\" content=\"statfi report\">\n"
        << "<meta name=\"statfi-schema\" content=\"statfi.eventlog.v1\">\n"
        << "<meta name=\"statfi-strata\" content=\"" << strata_marker
        << "\">\n"
        << extra_meta << "<title>" << html_escape(title) << "</title>\n"
        << "<style>\n"
           ":root{--bg:#fcfcfb;--card:#ffffff;--ink:#1a1a19;"
           "--ink2:#52514e;--ink3:#898781;--grid:#e3e1dc;--accent:#1f56a0;"
           "--band:#cde2fb;}\n"
           "@media (prefers-color-scheme:dark){:root{--bg:#1a1a19;"
           "--card:#232322;--ink:#f4f3f1;--ink2:#b9b7b1;--ink3:#898781;"
           "--grid:#3a3935;--accent:#7faae4;--band:#2c4a74;}}\n"
           "body{background:var(--bg);color:var(--ink);margin:0;"
           "font:14px/1.5 system-ui,sans-serif;}\n"
           "main{max-width:980px;margin:0 auto;padding:24px 20px 60px;}\n"
           "h1{font-size:22px;margin:0 0 4px;}\n"
           "h2{font-size:16px;margin:32px 0 10px;}\n"
           ".sub{color:var(--ink2);margin:0 0 18px;}\n"
           ".tiles{display:flex;flex-wrap:wrap;gap:12px;}\n"
           ".tile{background:var(--card);border:1px solid var(--grid);"
           "border-radius:8px;padding:10px 16px;min-width:118px;}\n"
           ".tile .v{font-size:20px;font-weight:600;}\n"
           ".tile .l{color:var(--ink3);font-size:12px;}\n"
           ".tile .s{color:var(--ink2);font-size:12px;}\n"
           ".card{background:var(--card);border:1px solid var(--grid);"
           "border-radius:8px;padding:14px;overflow-x:auto;}\n"
           ".note{color:var(--ink3);font-size:12px;margin:6px 0 0;}\n"
           "table{border-collapse:collapse;font-size:13px;width:100%;}\n"
           "th{color:var(--ink2);text-align:right;font-weight:500;"
           "border-bottom:1px solid var(--grid);padding:4px 8px;}\n"
           "th.t,td.t{text-align:left;}\n"
           "td{text-align:right;padding:3px 8px;"
           "border-bottom:1px solid var(--grid);}\n"
           "svg text{fill:var(--ink2);font:11px system-ui,sans-serif;}\n"
           "svg text.v{fill:var(--ink);}\n"
           ".mono{font-variant-numeric:tabular-nums;}\n"
           "footer{color:var(--ink3);font-size:12px;margin-top:40px;}\n"
           ".badge{display:inline-block;border-radius:6px;padding:1px 8px;"
           "font-size:12px;border:1px solid var(--grid);}\n"
           "</style>\n</head>\n<body>\n<main>\n";
}

void tile(std::ostringstream& out, const std::string& label,
          const std::string& value, const std::string& sub = "") {
    out << "<div class=\"tile\"><div class=\"l\">" << html_escape(label)
        << "</div><div class=\"v mono\">" << html_escape(value) << "</div>";
    if (!sub.empty())
        out << "<div class=\"s\">" << html_escape(sub) << "</div>";
    out << "</div>\n";
}

/// Activation campaigns stratify over graph nodes; multi-bit upsets over
/// combinadic ranks. Labels follow the campaign's fault model so the
/// heatmap/table rows read as what they are.
bool is_activation_model(const ObservatoryModel& m) {
    return m.fault_model == "activation";
}

bool is_mbu_model(const ObservatoryModel& m) {
    return m.fault_model.rfind("mbu", 0) == 0;
}

/// The strata axis next to the layer: bit position, or combo rank for MBU.
const char* bit_axis_prefix(const ObservatoryModel& m) {
    return is_mbu_model(m) ? "c" : "b";
}

std::string layer_name(const ObservatoryModel& m, int layer) {
    for (const auto& l : m.layers)
        if (l.layer == layer) return l.name;
    if (layer < 0)
        return is_activation_model(m) ? std::string("all nodes")
                                      : std::string("all layers");
    return (is_activation_model(m) ? "node " : "layer ") +
           std::to_string(layer);
}

std::string stratum_label(const ObservatoryModel& m,
                          const ObservatoryModel::Stratum& s) {
    if (s.layer < 0 && s.bit < 0) return "network";
    if (s.bit < 0) return layer_name(m, s.layer);
    return layer_name(m, s.layer) + " " + bit_axis_prefix(m) +
           std::to_string(s.bit);
}

// --- heatmap ---------------------------------------------------------------

void render_heatmap(std::ostringstream& out, const ObservatoryModel& m) {
    // Rows = layers that have at least one per-(bit, layer) stratum, cols =
    // bit index. Network-/layer-wise campaigns have none — skip cleanly.
    std::vector<int> rows;
    double p_max = 0.0;
    for (const auto& s : m.strata) {
        if (s.layer < 0 || s.bit < 0 || !s.final_point() ||
            s.final_point()->done == 0)
            continue;
        if (std::find(rows.begin(), rows.end(), s.layer) == rows.end())
            rows.push_back(s.layer);
        p_max = std::max(p_max, s.final_point()->p_hat);
    }
    if (rows.empty() || m.bits <= 0) return;
    std::sort(rows.begin(), rows.end());
    const double scale_max = p_max > 0 ? p_max : 1.0;

    const int cell = 16, gap = 2, left = 120, top = 24;
    const int legend_h = 40;
    const int width = left + m.bits * (cell + gap) + 20;
    const int height =
        top + static_cast<int>(rows.size()) * (cell + gap) + legend_h;

    const std::string axis = is_mbu_model(m) ? "combo" : "bit";
    const std::string rows_name = is_activation_model(m) ? "node" : "layer";
    out << "<h2>Per-(" << axis << ", " << rows_name
        << ") vulnerability</h2>\n<div class=\"card\">\n"
        << "<svg width=\"" << width << "\" height=\"" << height
        << "\" role=\"img\" aria-label=\"vulnerability heatmap\">\n";
    // bit axis labels every 4 columns
    for (int b = 0; b < m.bits; b += 4)
        out << "<text x=\"" << left + b * (cell + gap) + cell / 2
            << "\" y=\"" << top - 8 << "\" text-anchor=\"middle\">" << b
            << "</text>\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const int y = top + static_cast<int>(r) * (cell + gap);
        out << "<text x=\"" << left - 8 << "\" y=\"" << y + cell - 4
            << "\" text-anchor=\"end\">"
            << html_escape(layer_name(m, rows[r])) << "</text>\n";
        for (int b = 0; b < m.bits; ++b) {
            const auto* s = m.find_stratum(rows[r], b);
            const auto* p = s ? s->final_point() : nullptr;
            const int x = left + b * (cell + gap);
            if (!p || p->done == 0) {
                out << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
                    << cell << "\" height=\"" << cell
                    << "\" rx=\"2\" fill=\"none\" stroke=\"var(--grid)\"/>"
                       "\n";
                continue;
            }
            out << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
                << cell << "\" height=\"" << cell << "\" rx=\"2\" fill=\""
                << ramp_color(p->p_hat / scale_max) << "\"><title>"
                << html_escape(layer_name(m, rows[r])) << " " << axis << " "
                << b
                << "\np_hat = " << fmt_g(p->p_hat) << " (" << p->critical
                << "/" << p->done << ")\nWilson [" << fmt_g(p->wilson_lo)
                << ", " << fmt_g(p->wilson_hi) << "]</title></rect>\n";
        }
    }
    // legend: the ramp with min/max annotations
    const int ly = top + static_cast<int>(rows.size()) * (cell + gap) + 14;
    const int lw = 160, steps = 32;
    for (int i = 0; i < steps; ++i)
        out << "<rect x=\"" << left + i * lw / steps << "\" y=\"" << ly
            << "\" width=\"" << (lw + steps - 1) / steps
            << "\" height=\"10\" fill=\""
            << ramp_color(static_cast<double>(i) / (steps - 1)) << "\"/>\n";
    out << "<text x=\"" << left << "\" y=\"" << ly + 24 << "\">0</text>\n"
        << "<text x=\"" << left + lw << "\" y=\"" << ly + 24
        << "\" text-anchor=\"end\">" << fmt_g(scale_max) << "</text>\n"
        << "<text x=\"" << left + lw + 12 << "\" y=\"" << ly + 10
        << "\">critical probability p&#770;</text>\n"
        << "</svg>\n"
        << "<p class=\"note\">Cell shade: final p&#770; per (" << axis
        << ", " << rows_name
        << ") stratum, light&#8594;dark over one hue; hover a cell for the "
           "exact estimate and Wilson interval. Outlined cells have no "
           "injections.</p>\n</div>\n";
}

// --- convergence curves ----------------------------------------------------

void render_convergence(std::ostringstream& out, const ObservatoryModel& m) {
    // Small multiples, one per stratum with >= 2 points; when there are
    // more than kMax we keep the highest final p_hat (the interesting,
    // vulnerable strata) and say so.
    constexpr std::size_t kMax = 48;
    std::vector<const ObservatoryModel::Stratum*> picked;
    for (const auto& s : m.strata)
        if (s.points.size() >= 2) picked.push_back(&s);
    if (picked.empty()) return;
    const std::size_t total = picked.size();
    std::stable_sort(picked.begin(), picked.end(),
                     [](const auto* a, const auto* b) {
                         return a->final_point()->p_hat >
                                b->final_point()->p_hat;
                     });
    if (picked.size() > kMax) picked.resize(kMax);

    const int w = 170, h = 96, pad_l = 8, pad_r = 40, pad_t = 18, pad_b = 8;
    out << "<h2>Estimator convergence</h2>\n<div class=\"card\" "
           "style=\"display:flex;flex-wrap:wrap;gap:8px\">\n";
    for (const auto* s : picked) {
        const auto& pts = s->points;
        const double x0 = std::log2(static_cast<double>(
            std::max<std::uint64_t>(1, pts.front().done)));
        const double x1 = std::log2(static_cast<double>(
            std::max<std::uint64_t>(2, pts.back().done)));
        double y_max = 0.0;
        for (const auto& p : pts) y_max = std::max(y_max, p.wilson_hi);
        y_max = std::min(1.0, std::max(y_max, 1e-9) * 1.05);
        const auto X = [&](const ObservatoryModel::Point& p) {
            const double lx = std::log2(
                static_cast<double>(std::max<std::uint64_t>(1, p.done)));
            const double f = x1 > x0 ? (lx - x0) / (x1 - x0) : 1.0;
            return pad_l + f * (w - pad_l - pad_r);
        };
        const auto Y = [&](double v) {
            return pad_t +
                   (1.0 - std::clamp(v, 0.0, y_max) / y_max) *
                       (h - pad_t - pad_b);
        };
        out << "<svg width=\"" << w << "\" height=\"" << h
            << "\" role=\"img\"><title>" << html_escape(stratum_label(m, *s))
            << ": p&#770; vs injections (log2 x), Wilson band</title>\n"
            << "<text x=\"" << pad_l << "\" y=\"12\">"
            << html_escape(stratum_label(m, *s)) << "</text>\n";
        // Wilson band polygon: hi forward, lo backward.
        out << "<polygon fill=\"var(--band)\" points=\"";
        for (const auto& p : pts) out << fmt_g(X(p)) << "," << fmt_g(Y(p.wilson_hi)) << " ";
        for (auto it = pts.rbegin(); it != pts.rend(); ++it)
            out << fmt_g(X(*it)) << "," << fmt_g(Y(it->wilson_lo)) << " ";
        out << "\"/>\n<polyline fill=\"none\" stroke=\"var(--accent)\" "
               "stroke-width=\"2\" points=\"";
        for (const auto& p : pts) out << fmt_g(X(p)) << "," << fmt_g(Y(p.p_hat)) << " ";
        const auto& fin = pts.back();
        out << "\"/>\n<text class=\"v\" x=\"" << w - pad_r + 4 << "\" y=\""
            << fmt_g(Y(fin.p_hat) + 4) << "\">" << fmt_g(fin.p_hat, 3)
            << "</text>\n</svg>\n";
    }
    out << "</div>\n<p class=\"note\">p&#770; (line) with the Wilson "
           "interval (band) as each stratum accumulates injections "
           "(log&#8322; x-axis, one point per doubling)";
    if (total > picked.size())
        out << "; showing the " << picked.size() << " strata with the "
            << "highest final p&#770; of " << total;
    out << ".</p>\n";
}

// --- phase timing ----------------------------------------------------------

void render_phases(std::ostringstream& out, const ObservatoryModel& m) {
    if (m.phases.empty()) return;
    double max_s = 0.0;
    for (const auto& p : m.phases) max_s = std::max(max_s, p.seconds);
    if (max_s <= 0.0) max_s = 1.0;
    const int row = 24, left = 150, bar_w = 420, width = 700;
    const int height = static_cast<int>(m.phases.size()) * row + 8;
    out << "<h2>Phase timing</h2>\n<div class=\"card\">\n<svg width=\""
        << width << "\" height=\"" << height << "\" role=\"img\" "
        << "aria-label=\"phase timing\">\n";
    for (std::size_t i = 0; i < m.phases.size(); ++i) {
        const auto& p = m.phases[i];
        const int y = static_cast<int>(i) * row + 4;
        const double frac = p.seconds / max_s;
        const int bw = std::max(2, static_cast<int>(frac * bar_w));
        out << "<text x=\"" << left - 8 << "\" y=\"" << y + 13
            << "\" text-anchor=\"end\">" << html_escape(p.name)
            << "</text>\n"
            << "<rect x=\"" << left << "\" y=\"" << y << "\" width=\"" << bw
            << "\" height=\"16\" rx=\"4\" fill=\"var(--accent)\"><title>"
            << html_escape(p.name) << ": " << fmt_g(p.seconds) << " s over "
            << p.count << " span(s)</title></rect>\n"
            << "<text class=\"v\" x=\"" << left + bw + 8 << "\" y=\""
            << y + 13 << "\">" << fmt_seconds(p.seconds);
        if (p.count > 1) out << " &#215;" << p.count;
        out << "</text>\n";
    }
    out << "</svg>\n</div>\n";
}

// --- tables ----------------------------------------------------------------

void render_shards(std::ostringstream& out, const ObservatoryModel& m) {
    if (m.shards.empty()) return;
    out << "<h2>Shards</h2>\n<div class=\"card\">\n<table>\n"
           "<tr><th class=\"t\">shard</th><th>items</th><th>range</th>"
           "<th>resumed</th><th>classified</th>"
           "<th class=\"t\">state</th></tr>\n";
    for (const auto& s : m.shards)
        out << "<tr><td class=\"t mono\">" << s.shard << "</td><td "
            << "class=\"mono\">" << fmt_count(s.range_end - s.range_begin)
            << "</td><td class=\"mono\">[" << s.range_begin << ", "
            << s.range_end << ")</td><td class=\"mono\">"
            << fmt_count(s.resumed) << "</td><td class=\"mono\">"
            << fmt_count(s.classified) << "</td><td class=\"t\">"
            << (!s.ended ? "running"
                         : (s.complete ? "complete" : "interrupted"))
            << "</td></tr>\n";
    out << "</table>\n";
    if (m.merge_artifacts)
        out << "<p class=\"note\">" << m.merge_artifacts
            << " shard artifact(s) validated and merged.</p>\n";
    out << "</div>\n";
}

void render_strata_table(std::ostringstream& out,
                         const ObservatoryModel& m) {
    if (m.strata.empty()) return;
    constexpr std::size_t kMaxRows = 1024;
    out << "<h2>Strata</h2>\n<div class=\"card\">\n<table>\n"
           "<tr><th class=\"t\">stratum</th><th>population</th>"
           "<th>planned</th><th>done</th><th>critical</th>"
           "<th>p&#770;</th><th>Wilson CI</th><th>Wald CI (FPC)</th></tr>\n";
    std::size_t shown = 0;
    for (const auto& s : m.strata) {
        if (shown == kMaxRows) break;
        const auto* p = s.final_point();
        out << "<tr><td class=\"t\">" << html_escape(stratum_label(m, s))
            << "</td><td class=\"mono\">" << fmt_count(s.population)
            << "</td><td class=\"mono\">" << fmt_count(s.planned) << "</td>";
        if (p)
            out << "<td class=\"mono\">" << fmt_count(p->done)
                << "</td><td class=\"mono\">" << fmt_count(p->critical)
                << "</td><td class=\"mono\">" << fmt_g(p->p_hat)
                << "</td><td class=\"mono\">[" << fmt_g(p->wilson_lo) << ", "
                << fmt_g(p->wilson_hi) << "]</td><td class=\"mono\">["
                << fmt_g(p->wald_lo) << ", " << fmt_g(p->wald_hi)
                << "]</td>";
        else
            out << "<td class=\"mono\">0</td><td class=\"mono\">0</td>"
                   "<td class=\"mono\">&#8212;</td><td class=\"mono\">"
                   "&#8212;</td><td class=\"mono\">&#8212;</td>";
        out << "</tr>\n";
        ++shown;
    }
    out << "</table>\n";
    if (m.strata.size() > shown)
        out << "<p class=\"note\">showing " << shown << " of "
            << m.strata.size() << " strata.</p>\n";
    out << "</div>\n";
}

std::string describe_recipe(const ObservatoryModel& m) {
    std::string sub = m.model;
    if (!m.approach.empty()) sub += " · " + m.approach;
    if (!m.fault_model.empty()) sub += " · " + m.fault_model;
    if (!m.dtype.empty()) sub += " · " + m.dtype;
    if (!m.policy.empty()) sub += " · " + m.policy;
    sub += " · seed " + std::to_string(m.seed);
    sub += " · " + std::to_string(m.images) + " image(s)";
    sub += " · " + fmt_pct(m.confidence) + " confidence";
    if (!m.mitigation.empty() && m.mitigation != "none")
        sub += " · mitigated: " + m.mitigation;
    return sub;
}

std::uint64_t strata_with_data(const ObservatoryModel& m) {
    std::uint64_t n = 0;
    for (const auto& s : m.strata)
        if (s.final_point() && s.final_point()->done) ++n;
    return n;
}

}  // namespace

std::string render_observatory_html(const ObservatoryModel& m,
                                    const std::string& title) {
    std::ostringstream out;
    open_document(out, title, strata_with_data(m), "");

    out << "<h1>" << html_escape(title) << "</h1>\n<p class=\"sub\">"
        << html_escape(describe_recipe(m)) << "</p>\n";

    // stat tiles — the headline numbers, sample-size savings front and
    // center (the paper's whole point).
    std::uint64_t done_total = 0, crit_total = 0;
    for (const auto& s : m.strata)
        if (const auto* p = s.final_point()) {
            done_total += p->done;
            crit_total += p->critical;
        }
    const std::uint64_t injected = m.finished ? m.injected : done_total;
    const std::uint64_t critical = m.finished ? m.critical : crit_total;
    out << "<section class=\"tiles\">\n";
    tile(out, "status",
         !m.finished ? "in progress" : (m.complete ? "complete" : "interrupted"),
         m.finished ? "wall " + fmt_seconds(m.wall_seconds) : "");
    tile(out, "fault universe", fmt_count(m.universe));
    tile(out, "planned injections", fmt_count(m.planned),
         m.universe ? fmt_pct(static_cast<double>(m.planned) /
                              static_cast<double>(m.universe)) +
                          " of universe"
                    : "");
    if (m.universe && m.planned && m.planned <= m.universe)
        tile(out, "savings vs exhaustive",
             fmt_pct(1.0 - static_cast<double>(m.planned) /
                               static_cast<double>(m.universe)),
             fmt_count(m.universe - m.planned) + " injections avoided");
    tile(out, "injected", fmt_count(injected));
    tile(out, "critical", fmt_count(critical),
         injected ? "rate " + fmt_g(static_cast<double>(critical) /
                                    static_cast<double>(injected))
                  : "");
    if (m.resumed) tile(out, "resumed from journal", fmt_count(m.resumed));
    out << "</section>\n";

    render_heatmap(out, m);
    render_convergence(out, m);
    render_phases(out, m);
    render_shards(out, m);
    render_strata_table(out, m);

    out << "<footer>statfi report · statfi.eventlog.v1 · "
        << m.event_count << " events</footer>\n"
        << "</main>\n</body>\n</html>\n";
    return out.str();
}

DiffReport diff_observatories(const ObservatoryModel& a,
                              const ObservatoryModel& b) {
    DiffReport d;
    for (const auto& sa : a.strata) {
        const auto* sb = b.find_stratum(sa.layer, sa.bit);
        const auto* pa = sa.final_point();
        if (!sb || !sb->final_point()) {
            if (pa && pa->done) ++d.a_only;
            continue;
        }
        const auto* pb = sb->final_point();
        if (!pa || pa->done == 0 || pb->done == 0) continue;
        ++d.compared;
        const bool disjoint =
            pa->wilson_hi < pb->wilson_lo || pb->wilson_hi < pa->wilson_lo;
        if (!disjoint) continue;
        StratumDiff sd;
        sd.layer = sa.layer;
        sd.bit = sa.bit;
        sd.a_p = pa->p_hat;
        sd.a_lo = pa->wilson_lo;
        sd.a_hi = pa->wilson_hi;
        sd.b_p = pb->p_hat;
        sd.b_lo = pb->wilson_lo;
        sd.b_hi = pb->wilson_hi;
        sd.regression = pb->wilson_lo > pa->wilson_hi;
        d.flagged.push_back(sd);
    }
    for (const auto& sb : b.strata) {
        if (!sb.final_point() || sb.final_point()->done == 0) continue;
        if (!a.find_stratum(sb.layer, sb.bit)) ++d.b_only;
    }
    return d;
}

std::string render_diff_html(const ObservatoryModel& a,
                             const ObservatoryModel& b, const DiffReport& d,
                             const std::string& title) {
    std::ostringstream out;
    std::ostringstream extra;
    extra << "<meta name=\"statfi-diff-flagged\" content=\""
          << d.flagged.size() << "\">\n";
    open_document(out, title, d.compared, extra.str());
    out << "<h1>" << html_escape(title) << "</h1>\n<p class=\"sub\">A: "
        << html_escape(describe_recipe(a)) << "<br>B: "
        << html_escape(describe_recipe(b)) << "</p>\n";
    out << "<section class=\"tiles\">\n";
    tile(out, "strata compared", fmt_count(d.compared));
    tile(out, "flagged (disjoint CIs)", fmt_count(d.flagged.size()),
         d.flagged.empty() ? "A and B agree within their intervals" : "");
    if (d.a_only) tile(out, "A only", fmt_count(d.a_only));
    if (d.b_only) tile(out, "B only", fmt_count(d.b_only));
    out << "</section>\n";
    if (!d.flagged.empty()) {
        out << "<h2>Flagged strata</h2>\n<div class=\"card\">\n<table>\n"
               "<tr><th class=\"t\">stratum</th>"
               "<th>A p&#770; [Wilson]</th><th>B p&#770; [Wilson]</th>"
               "<th class=\"t\">direction</th></tr>\n";
        for (const auto& f : d.flagged) {
            ObservatoryModel::Stratum key;
            key.layer = f.layer;
            key.bit = f.bit;
            out << "<tr><td class=\"t\">"
                << html_escape(stratum_label(a, key))
                << "</td><td class=\"mono\">" << fmt_g(f.a_p) << " ["
                << fmt_g(f.a_lo) << ", " << fmt_g(f.a_hi)
                << "]</td><td class=\"mono\">" << fmt_g(f.b_p) << " ["
                << fmt_g(f.b_lo) << ", " << fmt_g(f.b_hi)
                << "]</td><td class=\"t\">"
                << (f.regression ? "&#9650; B higher (more vulnerable)"
                                 : "&#9660; B lower (less vulnerable)")
                << "</td></tr>\n";
        }
        out << "</table>\n<p class=\"note\">A stratum is flagged when its "
               "final Wilson intervals in A and B do not overlap — the two "
               "campaigns disagree beyond their stated uncertainty.</p>\n"
               "</div>\n";
    }
    out << "<footer>statfi report --diff · statfi.eventlog.v1"
        << "</footer>\n</main>\n</body>\n</html>\n";
    return out.str();
}

std::uint64_t MatrixReport::divergent() const noexcept {
    std::uint64_t n = 0;
    for (const auto& p : pairs)
        if (p.same_format) n += p.diff.flagged.size();
    return n;
}

MatrixReport matrix_compare(const std::vector<ObservatoryModel>& logs) {
    MatrixReport r;
    for (std::size_t i = 0; i < logs.size(); ++i)
        for (std::size_t j = i + 1; j < logs.size(); ++j) {
            MatrixReport::Pair p;
            p.a = i;
            p.b = j;
            p.same_format = logs[i].format == logs[j].format;
            p.diff = diff_observatories(logs[i], logs[j]);
            r.pairs.push_back(std::move(p));
        }
    return r;
}

namespace {

void render_pair_table(std::ostringstream& out,
                       const std::vector<ObservatoryModel>& logs,
                       const std::vector<std::string>& labels,
                       const MatrixReport::Pair& p) {
    out << "<table>\n<tr><th class=\"t\">stratum</th><th>"
        << html_escape(logs[p.a].format) << " p&#770; [Wilson]</th><th>"
        << html_escape(logs[p.b].format) << " p&#770; [Wilson]</th>"
        << "<th class=\"t\">direction</th></tr>\n";
    for (const auto& f : p.diff.flagged) {
        ObservatoryModel::Stratum key;
        key.layer = f.layer;
        key.bit = f.bit;
        out << "<tr><td class=\"t\">"
            << html_escape(stratum_label(logs[p.a], key))
            << "</td><td class=\"mono\">" << fmt_g(f.a_p) << " ["
            << fmt_g(f.a_lo) << ", " << fmt_g(f.a_hi)
            << "]</td><td class=\"mono\">" << fmt_g(f.b_p) << " ["
            << fmt_g(f.b_lo) << ", " << fmt_g(f.b_hi)
            << "]</td><td class=\"t\">"
            << (f.regression ? "&#9650; higher in "
                             : "&#9660; lower in ")
            << html_escape(labels[p.b]) << "</td></tr>\n";
    }
    out << "</table>\n";
}

}  // namespace

std::string render_matrix_html(const std::vector<ObservatoryModel>& logs,
                               const std::vector<std::string>& labels,
                               const MatrixReport& r,
                               const std::string& title) {
    std::ostringstream out;
    std::ostringstream extra;
    extra << "<meta name=\"statfi-matrix-logs\" content=\"" << logs.size()
          << "\">\n"
          << "<meta name=\"statfi-matrix-flagged\" content=\""
          << r.divergent() << "\">\n";
    std::uint64_t strata_marker = 0;
    for (const auto& m : logs) strata_marker += strata_with_data(m);
    open_document(out, title, strata_marker, extra.str());

    out << "<h1>" << html_escape(title) << "</h1>\n<p class=\"sub\">"
        << logs.size() << " campaign log(s) side by side; same-format "
        << "disagreement is a divergence, cross-format shifts are the "
        << "measurement.</p>\n";

    out << "<section class=\"tiles\">\n";
    tile(out, "logs", fmt_count(logs.size()));
    tile(out, "pairs compared", fmt_count(r.pairs.size()));
    tile(out, "divergent strata", fmt_count(r.divergent()),
         r.divergent() == 0 ? "same-format campaigns agree" : "");
    std::uint64_t cross = 0;
    for (const auto& p : r.pairs)
        if (!p.same_format) cross += p.diff.flagged.size();
    tile(out, "cross-format shifts", fmt_count(cross),
         "disjoint CIs across formats");
    out << "</section>\n";

    // One heatmap section per log, labeled with its format and source.
    for (std::size_t i = 0; i < logs.size(); ++i) {
        const ObservatoryModel& m = logs[i];
        out << "<h2>" << html_escape(m.format.empty() ? m.dtype : m.format)
            << " &#8212; " << html_escape(labels[i]) << "</h2>\n"
            << "<p class=\"sub\">" << html_escape(describe_recipe(m))
            << "</p>\n";
        render_heatmap(out, m);
    }

    // Divergences first (they gate), then the cross-format picture.
    bool any_divergent = false;
    for (const auto& p : r.pairs) {
        if (!p.same_format || p.diff.flagged.empty()) continue;
        if (!any_divergent)
            out << "<h2>Divergent strata (same format)</h2>\n";
        any_divergent = true;
        out << "<div class=\"card\">\n<p class=\"note\">"
            << html_escape(labels[p.a]) << " vs "
            << html_escape(labels[p.b]) << " (both "
            << html_escape(logs[p.a].format)
            << "): these campaigns should agree within their intervals "
               "and do not.</p>\n";
        render_pair_table(out, logs, labels, p);
        out << "</div>\n";
    }

    bool any_cross = false;
    for (const auto& p : r.pairs) {
        if (p.same_format || p.diff.flagged.empty()) continue;
        if (!any_cross)
            out << "<h2>Cross-format differences</h2>\n"
                   "<p class=\"sub\">Strata whose Wilson intervals are "
                   "disjoint across formats — where reduced precision "
                   "changes the vulnerability profile (informational, "
                   "never gated).</p>\n";
        any_cross = true;
        out << "<div class=\"card\">\n<p class=\"note\">"
            << html_escape(labels[p.a]) << " ("
            << html_escape(logs[p.a].format) << ") vs "
            << html_escape(labels[p.b]) << " ("
            << html_escape(logs[p.b].format) << "); strata matched on "
            << "(layer, bit) over the common bit range.</p>\n";
        render_pair_table(out, logs, labels, p);
        out << "</div>\n";
    }

    out << "<footer>statfi report --matrix · statfi.eventlog.v1"
        << "</footer>\n</main>\n</body>\n</html>\n";
    return out.str();
}

}  // namespace statfi::report
