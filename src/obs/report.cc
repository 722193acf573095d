#include "obs/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/version.hh"

namespace lbp
{
namespace obs
{

namespace
{

std::string
fmt(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.5g", v);
    return buf;
}

/** Render a metric leaf for a table cell. */
std::string
cellValue(const Json &v)
{
    if (v.kind() == Json::Kind::Null)
        return "<span class=\"bad\">null (non-finite)</span>";
    return htmlEscape(v.dump());
}

/**
 * A 150x36 inline sparkline over @p ys (already finite). A single
 * value draws as a flat midline so "history of length one" still
 * renders.
 */
std::string
sparklineSvg(const std::vector<double> &ys)
{
    const double w = 150, h = 36, pad = 4;
    double lo = ys[0], hi = ys[0];
    for (double y : ys) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
    }
    const double span = hi - lo;
    auto px = [&](std::size_t i) {
        return ys.size() == 1
                   ? w / 2
                   : pad + (w - 2 * pad) * static_cast<double>(i) /
                         static_cast<double>(ys.size() - 1);
    };
    auto py = [&](double y) {
        return span == 0 ? h / 2
                         : h - pad - (h - 2 * pad) * (y - lo) / span;
    };
    std::ostringstream os;
    os << "<svg class=\"spark\" width=\"150\" height=\"36\" "
          "viewBox=\"0 0 150 36\" role=\"img\">";
    os << "<polyline points=\"";
    for (std::size_t i = 0; i < ys.size(); ++i) {
        if (i)
            os << ' ';
        os << fmt(px(i)) << ',' << fmt(py(ys[i]));
    }
    os << "\"/>";
    os << "<circle cx=\"" << fmt(px(ys.size() - 1)) << "\" cy=\""
       << fmt(py(ys.back())) << "\" r=\"2.5\"/>";
    os << "</svg>";
    return os.str();
}

/** Bin bars for one histogram: [[value, weight], ...]. */
std::string
histogramSvg(const Json &bins, std::size_t maxBins)
{
    const auto &items = bins.items();
    const std::size_t n = std::min(items.size(), maxBins);
    if (!n)
        return "";
    double maxW = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &bin = items[i].items();
        if (bin.size() == 2 && bin[1].isNumber())
            maxW = std::max(maxW, bin[1].asDouble());
    }
    if (maxW <= 0)
        return "";
    const double barW = 5, gap = 2, h = 40;
    const double w = static_cast<double>(n) * (barW + gap);
    std::ostringstream os;
    os << "<svg class=\"hist\" width=\"" << fmt(w) << "\" height=\""
       << fmt(h) << "\" viewBox=\"0 0 " << fmt(w) << ' ' << fmt(h)
       << "\" role=\"img\">";
    for (std::size_t i = 0; i < n; ++i) {
        const auto &bin = items[i].items();
        if (bin.size() != 2 || !bin[1].isNumber())
            continue;
        const double frac = bin[1].asDouble() / maxW;
        const double bh = std::max(1.0, (h - 2) * frac);
        os << "<rect x=\""
           << fmt(static_cast<double>(i) * (barW + gap)) << "\" y=\""
           << fmt(h - bh) << "\" width=\"" << fmt(barW)
           << "\" height=\"" << fmt(bh) << "\" rx=\"1\"><title>"
           << htmlEscape(bin[0].dump()) << " : "
           << htmlEscape(bin[1].dump()) << "</title></rect>";
    }
    os << "</svg>";
    return os.str();
}

const char *kCss = R"css(
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --series: #2a78d6; --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --series: #3987e5; --border: rgba(255,255,255,0.10);
  }
}
body {
  margin: 0; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; padding: 20px; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin: 24px 0 8px; }
h3 { font-size: 13px; color: var(--ink2); margin: 14px 0 6px; }
section {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; margin: 12px 0;
}
table { border-collapse: collapse; width: 100%; }
th {
  text-align: left; color: var(--muted); font-weight: 500;
  font-size: 12px; border-bottom: 1px solid var(--axis);
  padding: 3px 10px 3px 0;
}
td {
  padding: 2px 10px 2px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
td.num, th.num { text-align: right; }
.cards {
  display: grid; gap: 10px;
  grid-template-columns: repeat(auto-fill, minmax(230px, 1fr));
}
.card {
  border: 1px solid var(--grid); border-radius: 6px; padding: 6px 8px;
}
.card .k {
  font-size: 11px; color: var(--ink2); word-break: break-all;
}
.card .v { font-size: 12px; }
.card .mm { color: var(--muted); font-size: 11px; }
.spark polyline {
  fill: none; stroke: var(--series); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round;
}
.spark circle { fill: var(--series); }
.hist rect { fill: var(--series); }
.badge {
  display: inline-block; padding: 0 6px; border-radius: 8px;
  font-size: 11px; border: 1px solid var(--border);
}
.badge.ok { color: var(--good); }
.badge.bad { color: var(--critical); }
.bad { color: var(--critical); }
.good { color: var(--good); }
.muted { color: var(--muted); }
.banner {
  padding: 8px 12px; border-radius: 6px; font-weight: 600;
  border: 1px solid var(--border);
}
.banner.pass { color: var(--good); }
.banner.fail { color: var(--critical); }
.barrow { display: flex; align-items: center; gap: 8px; margin: 2px 0; }
.barrow .lbl {
  width: 260px; font-size: 12px; color: var(--ink2);
  text-align: right; word-break: break-all;
}
.barrow .track { flex: 1; }
.barrow .bar {
  background: var(--series); height: 10px; border-radius: 2px;
  min-width: 2px;
}
.barrow .val {
  width: 90px; font-size: 12px; font-variant-numeric: tabular-nums;
}
.stack {
  flex: 1; display: flex; height: 12px; border-radius: 2px;
  overflow: hidden; background: var(--grid);
}
.stack .seg { height: 100%; }
.legend { font-size: 11px; color: var(--ink2); margin: 6px 0; }
.legend .sw {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 4px 0 10px; vertical-align: middle;
}
.cc0 { background: #898781; }
.cc1 { background: #2a78d6; }
.cc2 { background: #19b8c4; }
.cc3 { background: #d03b3b; }
.cc4 { background: #d07a3b; }
.cc5 { background: #c43bd0; }
.cc6 { background: #d0b83b; }
.cc7 { background: #0ca30c; }
details > summary { cursor: pointer; color: var(--ink2); }
footer { color: var(--muted); font-size: 12px; margin: 16px 0; }
)css";

void
writeMetaSection(std::ostream &os, const ReportData &d)
{
    os << "<section id=\"meta\"><h2>Run identity</h2><table>";
    os << "<tr><td>workload</td><td>" << htmlEscape(d.workload)
       << "</td></tr>";
    if (const Json *sha = d.registryDoc.find("git_sha"))
        os << "<tr><td>git_sha</td><td>"
           << htmlEscape(sha->kind() == Json::Kind::String
                             ? sha->asString()
                             : sha->dump())
           << "</td></tr>";
    os << "<tr><td>version</td><td>" << htmlEscape(versionString())
       << "</td></tr>";
    if (!d.historyPath.empty())
        os << "<tr><td>history store</td><td>"
           << htmlEscape(d.historyPath) << " ("
           << d.history.size() << " record(s))</td></tr>";
    if (const Json *meta = d.registryDoc.find("meta"))
        for (const auto &kv : meta->members())
            os << "<tr><td>" << htmlEscape(kv.first) << "</td><td>"
               << cellValue(kv.second) << "</td></tr>";
    os << "</table></section>\n";
}

void
writeGateSection(std::ostream &os, const ReportData &d)
{
    if (d.check.kind() != Json::Kind::Object)
        return;
    const Json *failed = d.check.find("failed");
    const bool bad = failed && failed->kind() == Json::Kind::Bool &&
                     failed->asBool();
    os << "<section id=\"gate\"><h2>Regression gate</h2>";
    os << "<div class=\"banner " << (bad ? "fail" : "pass") << "\">"
       << (bad ? "✖ FAIL" : "✔ PASS")
       << " &mdash; history check against "
       << (d.check.find("baseline_records")
               ? htmlEscape(d.check.find("baseline_records")->dump())
               : std::string("0"))
       << " baseline record(s)</div>";
    const Json *verdicts = d.check.find("verdicts");
    if (verdicts && !verdicts->items().empty()) {
        os << "<table><tr><th>key</th><th>verdict</th><th>class"
              "</th><th>detail</th></tr>";
        for (const auto &v : verdicts->items()) {
            auto field = [&](const char *k) {
                const Json *f = v.find(k);
                if (!f)
                    return std::string();
                return f->kind() == Json::Kind::String
                           ? f->asString()
                           : f->dump();
            };
            const std::string name = field("verdict");
            const bool rowBad = name.find_first_of(
                                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ") !=
                                std::string::npos;
            os << "<tr><td>" << htmlEscape(field("key"))
               << "</td><td class=\"" << (rowBad ? "bad" : "good")
               << "\">" << htmlEscape(name) << "</td><td>"
               << htmlEscape(field("class")) << "</td><td>"
               << htmlEscape(field("detail")) << "</td></tr>";
        }
        os << "</table>";
    }
    os << "</section>\n";
}

void
writeTrajectories(std::ostream &os, const ReportData &d)
{
    os << "<section id=\"trajectories\"><h2>History trajectories"
          "</h2>";
    if (d.history.empty()) {
        os << "<p class=\"muted\">No history store loaded; run "
              "<code>lbp_stats history append</code> to start the "
              "timeline.</p></section>\n";
        return;
    }

    // Group records by source, preserving first-seen order.
    std::vector<std::string> sources;
    std::map<std::string, std::vector<const HistoryRecord *>> bySrc;
    for (const auto &rec : d.history) {
        if (!bySrc.count(rec.source))
            sources.push_back(rec.source);
        bySrc[rec.source].push_back(&rec);
    }

    const std::size_t kMaxPerSource = 64;
    for (const auto &src : sources) {
        const auto &recs = bySrc[src];
        os << "<h3>" << htmlEscape(src) << " &middot; "
           << recs.size() << " record(s)</h3><div class=\"cards\">";
        // The newest record's keys define the set and order.
        std::size_t shown = 0, skipped = 0;
        for (const auto &kv : recs.back()->values) {
            if (classifyKey(kv.first) == KeyClass::Identity)
                continue;
            std::vector<double> ys;
            for (const HistoryRecord *r : recs) {
                const Json *v = r->find(kv.first);
                if (v && v->isNumber() &&
                    std::isfinite(v->asDouble()))
                    ys.push_back(v->asDouble());
            }
            if (ys.empty())
                continue;
            if (shown >= kMaxPerSource) {
                ++skipped;
                continue;
            }
            ++shown;
            double lo = ys[0], hi = ys[0];
            for (double y : ys) {
                lo = std::min(lo, y);
                hi = std::max(hi, y);
            }
            os << "<div class=\"card\"><div class=\"k\">"
               << htmlEscape(kv.first) << "</div>"
               << sparklineSvg(ys) << "<div class=\"v\">last "
               << fmt(ys.back()) << " <span class=\"mm\">min "
               << fmt(lo) << " &middot; max " << fmt(hi) << " &middot; n="
               << ys.size() << "</span></div></div>";
        }
        os << "</div>";
        if (skipped)
            os << "<p class=\"muted\">" << skipped
               << " further metric(s) not plotted (cap "
               << kMaxPerSource << " per source).</p>";
    }
    os << "</section>\n";
}

void
writeMetricsSection(std::ostream &os, const ReportData &d)
{
    const Json *metrics = d.registryDoc.find("metrics");
    os << "<section id=\"metrics\"><h2>Registry metrics</h2>";
    if (!metrics || metrics->members().empty()) {
        os << "<p class=\"muted\">empty registry</p></section>\n";
        return;
    }
    // Group by leading dotted prefix; "loop.*" collapses by default
    // (one entry per rank can run long).
    std::vector<std::string> order;
    std::map<std::string, std::vector<const std::pair<std::string,
                                                      Json> *>> groups;
    for (const auto &kv : metrics->members()) {
        const std::string prefix =
            kv.first.substr(0, kv.first.find('.'));
        if (!groups.count(prefix))
            order.push_back(prefix);
        groups[prefix].push_back(&kv);
    }
    for (const auto &prefix : order) {
        const auto &rows = groups[prefix];
        const bool open = prefix != "loop";
        os << "<details" << (open ? " open" : "") << "><summary>"
           << htmlEscape(prefix) << " (" << rows.size()
           << ")</summary><table><tr><th>metric</th>"
              "<th class=\"num\">value</th></tr>";
        for (const auto *kv : rows)
            os << "<tr><td>" << htmlEscape(kv->first)
               << "</td><td class=\"num\">" << cellValue(kv->second)
               << "</td></tr>";
        os << "</table></details>";
    }
    os << "</section>\n";
}

void
writeHistogramsSection(std::ostream &os, const ReportData &d)
{
    const Json *hists = d.registryDoc.find("histograms");
    os << "<section id=\"histograms\"><h2>Histograms</h2>";
    if (!hists || hists->members().empty()) {
        os << "<p class=\"muted\">no histograms recorded</p>"
              "</section>\n";
        return;
    }
    os << "<div class=\"cards\">";
    const std::size_t kMaxBins = 64;
    for (const auto &kv : hists->members()) {
        const Json &h = kv.second;
        auto num = [&](const char *k) {
            const Json *v = h.find(k);
            return v && v->isNumber() ? v->asDouble() : 0.0;
        };
        // Percentiles of a never-observed histogram arrive as null
        // (undefined, not 0) — render them as such.
        auto pct = [&](const char *k) -> std::string {
            const Json *v = h.find(k);
            if (!v || v->kind() == Json::Kind::Null)
                return "null";
            return fmt(v->asDouble());
        };
        os << "<div class=\"card\"><div class=\"k\">"
           << htmlEscape(kv.first) << "</div>";
        if (const Json *bins = h.find("bins")) {
            os << histogramSvg(*bins, kMaxBins);
            if (bins->items().size() > kMaxBins)
                os << "<div class=\"mm\">first " << kMaxBins
                   << " of " << bins->items().size() << " bins</div>";
        }
        os << "<div class=\"v\">p50 " << pct("p50") << " &middot; p95 "
           << pct("p95") << " &middot; p99 " << pct("p99")
           << " <span class=\"mm\">mean " << fmt(num("mean"))
           << ", total " << fmt(num("total"))
           << "</span></div></div>";
    }
    os << "</div></section>\n";
}

void
writeScorecardSection(std::ostream &os, const ReportData &d)
{
    os << "<section id=\"scorecard\"><h2>Per-loop scorecard</h2>";
    const Json *loops = d.scorecard.kind() == Json::Kind::Object
                            ? d.scorecard.find("loops")
                            : nullptr;
    if (!loops) {
        os << "<p class=\"muted\">no scorecard attached; pass "
              "<code>--loops</code> JSON via <code>lbp_stats report "
              "--scorecard</code></p></section>\n";
        return;
    }
    auto topNum = [&](const char *k) {
        const Json *v = d.scorecard.find(k);
        return v && v->isNumber() ? v->asDouble() : 0.0;
    };
    const double fetched = topNum("ops_fetched");
    const double fromBuf = topNum("ops_from_buffer");
    os << "<p class=\"muted\">buffer " << fmt(topNum("buffer_ops"))
       << " ops &middot; " << fmt(fetched) << " ops fetched &middot; "
       << fmt(fromBuf) << " from buffer ("
       << fmt(fetched > 0 ? 100.0 * fromBuf / fetched : 0)
       << "%)</p>";
    os << "<table><tr><th class=\"num\">#</th><th>loop</th>"
          "<th>fate</th><th>reason</th><th class=\"num\">image"
          "</th><th class=\"num\">dyn ops</th><th class=\"num\">"
          "from buffer</th><th class=\"num\">missed ops</th>"
          "<th class=\"num\">energy nJ</th></tr>";
    int rank = 0;
    for (const auto &row : loops->items()) {
        auto field = [&](const char *k) -> const Json * {
            return row.find(k);
        };
        auto text = [&](const char *k) {
            const Json *v = field(k);
            if (!v)
                return std::string();
            return v->kind() == Json::Kind::String ? v->asString()
                                                   : v->dump();
        };
        const std::string fate = text("fate");
        const char *badge = fate == "buffered"
                                ? "ok"
                                : (fate == "rejected" ? "bad" : "");
        os << "<tr><td class=\"num\">" << ++rank << "</td><td>"
           << htmlEscape(text("name"));
        const Json *attempts = field("attempts");
        if (attempts && !attempts->items().empty()) {
            os << "<details><summary>" << attempts->items().size()
               << " attempt(s)</summary><ul>";
            for (const auto &a : attempts->items()) {
                auto at = [&](const char *k) {
                    const Json *v = a.find(k);
                    if (!v)
                        return std::string();
                    return v->kind() == Json::Kind::String
                               ? v->asString()
                               : v->dump();
                };
                os << "<li>" << htmlEscape(at("transform")) << ": "
                   << (a.find("applied") &&
                               a.find("applied")->asBool()
                           ? "applied"
                           : "skipped (" + htmlEscape(at("reason")) +
                                 ")")
                   << ", ops " << htmlEscape(at("ops_before"))
                   << " &rarr; " << htmlEscape(at("ops_after"));
                if (!at("note").empty())
                    os << " <span class=\"muted\">"
                       << htmlEscape(at("note")) << "</span>";
                os << "</li>";
            }
            os << "</ul></details>";
        }
        os << "</td><td><span class=\"badge " << badge << "\">"
           << htmlEscape(fate) << "</span></td><td>"
           << htmlEscape(text("reason")) << "</td><td class=\"num\">"
           << htmlEscape(text("image_ops"))
           << "</td><td class=\"num\">" << htmlEscape(text("dyn_ops"))
           << "</td><td class=\"num\">"
           << htmlEscape(text("ops_from_buffer"))
           << "</td><td class=\"num\">"
           << htmlEscape(text("missed_ops"))
           << "</td><td class=\"num\">"
           << htmlEscape(text("energy_nj")) << "</td></tr>";
    }
    os << "</table></section>\n";
}

/**
 * "Where the simulated cycles go": one stacked bar per loop (plus the
 * outside-any-loop row), segmented by CycleClass, widths scaled to
 * the workload's total simulated cycles. Data comes from the
 * scorecard JSON's cycle_stack blocks; a report generated from a run
 * without cycle accounting renders the placeholder.
 */
void
writeCyclesSection(std::ostream &os, const ReportData &d)
{
    const Json *cs = d.scorecard.kind() == Json::Kind::Object
                         ? d.scorecard.find("cycle_stack")
                         : nullptr;
    os << "<section id=\"cycles\"><h2>Where the simulated cycles go"
          "</h2>";
    const Json *total = cs ? cs->find("total_cycles") : nullptr;
    if (!cs || !total || !total->isNumber() ||
        total->asDouble() <= 0) {
        os << "<p class=\"muted\">no cycle stack in this document "
              "(run lacked cycle accounting)</p></section>\n";
        return;
    }
    const double totalCycles = total->asDouble();

    // Class order and names come from the workload stack's key order
    // (cycleRowToJson emits every class, enum-ordered).
    const Json *wl = cs->find("workload");
    std::vector<std::string> classes;
    if (wl)
        for (const auto &kv : wl->members())
            classes.push_back(kv.first);

    os << "<p class=\"muted\">" << fmt(totalCycles)
       << " simulated cycles, every one in exactly one class</p>";
    os << "<div class=\"legend\">";
    for (std::size_t k = 0; k < classes.size(); ++k)
        os << "<span class=\"sw cc" << k << "\"></span>"
           << htmlEscape(classes[k]);
    os << "</div>";

    auto stackedBar = [&](const std::string &label, const Json &row,
                          double rowTotal) {
        os << "<div class=\"barrow\"><div class=\"lbl\">"
           << htmlEscape(label) << "</div><div class=\"stack\">";
        for (std::size_t k = 0; k < classes.size(); ++k) {
            const Json *v = row.find(classes[k]);
            const double c =
                v && v->isNumber() ? v->asDouble() : 0.0;
            if (c <= 0)
                continue;
            os << "<div class=\"seg cc" << k << "\" style=\"width:"
               << fmt(100.0 * c / totalCycles) << "%\"><title>"
               << htmlEscape(classes[k]) << " : " << fmt(c)
               << "</title></div>";
        }
        os << "</div><div class=\"val\">" << fmt(rowTotal) << " ("
           << fmt(100.0 * rowTotal / totalCycles)
           << "%)</div></div>";
    };

    const Json *loops = d.scorecard.find("loops");
    if (loops) {
        for (const auto &row : loops->items()) {
            const Json *rc = row.find("cycle_stack");
            const Json *rt = row.find("total_cycles");
            if (!rc || !rt || !rt->isNumber())
                continue;
            const Json *name = row.find("name");
            stackedBar(name && name->kind() == Json::Kind::String
                           ? name->asString()
                           : std::string("?"),
                       *rc, rt->asDouble());
        }
    }
    if (const Json *outside = cs->find("outside")) {
        double t = 0;
        for (const auto &kv : outside->members())
            if (kv.second.isNumber())
                t += kv.second.asDouble();
        stackedBar("<outside any loop>", *outside, t);
    }
    os << "</section>\n";
}

void
writePhasesSection(std::ostream &os, const ReportData &d)
{
    const Json *metrics = d.registryDoc.find("metrics");
    struct Phase
    {
        std::string name;
        double ms;
    };
    std::vector<Phase> phases;
    const std::string prefix = "compile.phase.";
    if (metrics)
        for (const auto &kv : metrics->members()) {
            if (kv.first.rfind(prefix, 0) != 0)
                continue;
            if (kv.first.size() < 3 ||
                kv.first.compare(kv.first.size() - 3, 3, ".ms") != 0)
                continue;
            if (!kv.second.isNumber())
                continue;
            phases.push_back(
                {kv.first.substr(prefix.size(),
                                 kv.first.size() - prefix.size() - 3),
                 kv.second.asDouble()});
        }
    if (phases.empty()) {
        os << "<section id=\"phases\"><h2>Compile pipeline phases"
              "</h2><p class=\"muted\">no phase timers in this "
              "document</p></section>\n";
        return;
    }
    double maxMs = 0, totalMs = 0;
    for (const auto &p : phases) {
        maxMs = std::max(maxMs, p.ms);
        totalMs += p.ms;
    }
    os << "<section id=\"phases\"><h2>Compile pipeline phases</h2>"
       << "<p class=\"muted\">total " << fmt(totalMs) << " ms</p>";
    for (const auto &p : phases) {
        const double pct = maxMs > 0 ? 100.0 * p.ms / maxMs : 0;
        os << "<div class=\"barrow\"><div class=\"lbl\">"
           << htmlEscape(p.name)
           << "</div><div class=\"track\"><div class=\"bar\" "
              "style=\"width:"
           << fmt(pct) << "%\"></div></div><div class=\"val\">"
           << fmt(p.ms) << " ms</div></div>";
    }
    os << "</section>\n";
}

/**
 * "Where the host cycles go": the sampling self-profiler's region
 * split for the run that produced this report. Same .barrow bars as
 * the phase section, ranked by sample count, with the attribution
 * quality (fraction of samples landing inside a named region) in the
 * subtitle. A report generated without the profiler (no timer
 * support, or a pre-prof document) renders the placeholder.
 */
void
writeProfSection(std::ostream &os, const ReportData &d)
{
    const Json *regions = d.prof.kind() == Json::Kind::Object
                              ? d.prof.find("regions")
                              : nullptr;
    struct Region
    {
        std::string label;
        double count;
    };
    std::vector<Region> rows;
    if (regions)
        for (const auto &kv : regions->members())
            if (kv.second.isNumber() && kv.second.asDouble() > 0)
                rows.push_back({kv.first, kv.second.asDouble()});
    if (rows.empty()) {
        os << "<section id=\"prof\"><h2>Where the host cycles go"
              "</h2><p class=\"muted\">no self-profile in this "
              "document (sampling unavailable)</p></section>\n";
        return;
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Region &a, const Region &b) {
                         return a.count > b.count;
                     });
    double samples = 0, maxCount = 0;
    if (const Json *s = d.prof.find("samples"))
        samples = s->asDouble();
    for (const auto &r : rows)
        maxCount = std::max(maxCount, r.count);
    os << "<section id=\"prof\"><h2>Where the host cycles go</h2>"
       << "<p class=\"muted\">" << fmt(samples)
       << " samples, self-profiled while generating this report";
    if (const Json *af = d.prof.find("attributed_fraction"))
        os << " &middot; " << fmt(100.0 * af->asDouble())
           << "% attributed to named regions";
    // Dropped samples mean the path table overflowed: the split
    // below systematically under-counts whatever was dropped, so
    // surface the loss instead of hiding it.
    if (const Json *dr = d.prof.find("dropped"))
        if (dr->isNumber() && dr->asDouble() > 0)
            os << " &middot; " << fmt(dr->asDouble())
               << " samples dropped (path table full)";
    os << "</p>";
    for (const auto &r : rows) {
        const double pct =
            maxCount > 0 ? 100.0 * r.count / maxCount : 0;
        const double share =
            samples > 0 ? 100.0 * r.count / samples : 0;
        os << "<div class=\"barrow\"><div class=\"lbl\">"
           << htmlEscape(r.label)
           << "</div><div class=\"track\"><div class=\"bar\" "
              "style=\"width:"
           << fmt(pct) << "%\"></div></div><div class=\"val\">"
           << fmt(r.count) << " (" << fmt(share)
           << "%)</div></div>";
    }
    os << "</section>\n";
}

} // namespace

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
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

void
writeHtmlReport(std::ostream &os, const ReportData &data)
{
    os << "<!doctype html>\n<html lang=\"en\"><head>"
          "<meta charset=\"utf-8\">"
          "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">"
          "<title>lbp flight recorder &mdash; "
       << htmlEscape(data.workload) << "</title><style>" << kCss
       << "</style></head><body><main>\n";
    os << "<h1>lbp flight recorder &mdash; "
       << htmlEscape(data.workload) << "</h1>\n";

    writeMetaSection(os, data);
    writeGateSection(os, data);
    writeTrajectories(os, data);
    writeMetricsSection(os, data);
    writeHistogramsSection(os, data);
    writeScorecardSection(os, data);
    writeCyclesSection(os, data);
    writePhasesSection(os, data);
    writeProfSection(os, data);

    os << "<footer>generated by lbp_stats report &middot; "
       << htmlEscape(versionString())
       << " &middot; self-contained: no external fetches</footer>\n";
    os << "</main></body></html>\n";
}

} // namespace obs
} // namespace lbp
