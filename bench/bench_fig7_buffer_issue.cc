/**
 * @file
 * Figure 7 (a/b): percentage of instruction issue satisfied by the
 * loop buffer, per benchmark, across buffer sizes 16..2048, for
 * traditional optimization only (7a) and with hyperblock
 * transformations (7b). Also reports the paper's §1/§7 headline
 * aggregates: mean buffer issue at 256 ops excluding jpeg_enc and
 * mpeg2_enc (paper: 38.7% traditional -> 89.0% transformed, a 137.5%
 * relative increase).
 *
 * Usage: bench_fig7_buffer_issue [--json[=PATH]] [--history[=PATH]]
 *                                [--loops]
 *   --json[=P]     machine-readable results (default
 *                  BENCH_fig7.json); fractions are deterministic, so
 *                  the dump is diffable counter-exact by the
 *                  regression gate
 *   --history[=P]  also append the flattened document to the
 *                  BENCH_history.jsonl timeline (implies --json)
 *   --loops        per-loop scorecard for every workload
 *                  (aggressive, 256-op buffer) after the tables
 */

#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "support/stats.hh"

using namespace lbp;
using namespace lbp::bench;

namespace
{

struct Series
{
    std::string name;
    std::vector<double> frac; // per buffer size
};

std::vector<Series>
runLevel(OptLevel level)
{
    std::vector<Series> out;
    for (const auto &name : benchNames()) {
        auto &cr = compileBench(name, level);
        Series s;
        s.name = name;
        for (int size : figureBufferSizes()) {
            const SimStats st = simulate(cr, size);
            s.frac.push_back(st.bufferFraction());
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
printTable(const char *title, const std::vector<Series> &rows)
{
    std::printf("%s\n", title);
    rule();
    std::printf("%-12s", "benchmark");
    for (int size : figureBufferSizes())
        std::printf("%7d", size);
    std::printf("\n");
    rule();
    for (const auto &s : rows) {
        std::printf("%-12s", s.name.c_str());
        for (double f : s.frac)
            std::printf("%7.1f", f * 100.0);
        std::printf("\n");
    }
    rule();
}

double
headlineMean(const std::vector<Series> &rows, size_t sizeIdx)
{
    // The paper's 38.7%/89.0% aggregate excludes jpeg_enc and
    // mpeg2_enc.
    double sum = 0;
    int n = 0;
    for (const auto &s : rows) {
        if (s.name == "jpeg_enc" || s.name == "mpeg2_enc")
            continue;
        sum += s.frac[sizeIdx];
        ++n;
    }
    return n ? sum / n : 0;
}

void
writeJson(const std::string &path, const std::string &historyPath,
          const std::vector<Series> &trad,
          const std::vector<Series> &aggr, double headlineTrad,
          double headlineAggr, const obs::CycleRow &cycles)
{
    using obs::Json;
    Json doc = benchJsonDoc("fig7");

    Json config = Json::object();
    Json bs = Json::array();
    for (int s : figureBufferSizes())
        bs.push(Json::integer(s));
    config.set("buffer_sizes", std::move(bs));
    doc.set("config", std::move(config));

    auto seriesJson = [&](const std::vector<Series> &rows) {
        Json arr = Json::array();
        for (const auto &s : rows) {
            Json row = Json::object();
            row.set("workload", Json::str(s.name));
            Json fr = Json::array();
            for (double f : s.frac)
                fr.push(Json::number(f));
            row.set("bufferFraction", std::move(fr));
            arr.push(std::move(row));
        }
        return arr;
    };
    doc.set("traditional", seriesJson(trad));
    doc.set("aggressive", seriesJson(aggr));

    Json headline = Json::object();
    headline.set("traditional256", Json::number(headlineTrad));
    headline.set("aggressive256", Json::number(headlineAggr));
    if (headlineTrad > 0) {
        headline.set("relativeIncrease",
                     Json::number((headlineAggr - headlineTrad) /
                                  headlineTrad));
    }
    doc.set("headline", std::move(headline));

    // Closed cycle accounting at the headline configuration
    // (aggressive, 256-op buffer), summed over every workload.
    doc.set("cycle_stack", cycleStackJson(cycles));

    writeBenchJson(path, doc);
    if (!historyPath.empty())
        appendBenchHistory(historyPath, doc);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions o;
    if (!parseBenchOptions(argc, argv,
                           kBenchFlagJson | kBenchFlagHistory |
                               kBenchFlagLoops,
                           "BENCH_fig7.json", o))
        return 2;

    std::printf("=== Figure 7: instruction issue from the loop buffer "
                "(%%) ===\n\n");

    auto trad = runLevel(OptLevel::Traditional);
    printTable("Figure 7a — traditional code optimization only", trad);
    std::printf("\n");
    auto aggr = runLevel(OptLevel::Aggressive);
    printTable("Figure 7b — with hyperblock transformations", aggr);

    // Index of 256 in the size list.
    size_t idx256 = 0;
    for (size_t i = 0; i < figureBufferSizes().size(); ++i)
        if (figureBufferSizes()[i] == 256)
            idx256 = i;

    const double t = headlineMean(trad, idx256);
    const double a = headlineMean(aggr, idx256);
    std::printf("\nHeadline (256-op buffer, excl. jpeg_enc/mpeg2_enc):\n");
    std::printf("  traditional: %s   (paper: 38.7%%)\n",
                pct(t).c_str());
    std::printf("  transformed: %s   (paper: 89.0%%)\n",
                pct(a).c_str());
    if (t > 0) {
        std::printf("  relative increase: %s   (paper: 137.5%%)\n",
                    pct((a - t) / t).c_str());
    }

    if (o.loops) {
        std::printf("\n=== Per-loop scorecards (aggressive, 256-op "
                    "buffer) ===\n\n");
        dumpLoopScorecards(OptLevel::Aggressive, 256);
    }
    if (o.json) {
        // Where the headline configuration's cycles go: one extra
        // run per workload at (aggressive, 256), stacks summed.
        obs::CycleRow cycles{};
        for (const auto &name : benchNames()) {
            auto &cr = compileBench(name, OptLevel::Aggressive);
            obs::CycleStack cs;
            simulate(cr, 256, PredMode::SLOT, SimEngine::DECODED,
                     nullptr, &cs);
            const obs::CycleRow row = cs.totals();
            for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
                cycles[k] += row[k];
        }
        writeJson(o.jsonPath, o.historyPath, trad, aggr, t, a,
                  cycles);
    }
    return 0;
}
