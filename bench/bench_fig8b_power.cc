/**
 * @file
 * Figure 8b: estimated instruction fetch power, normalized to
 * buffer-less issue of traditionally-optimized code. Three bars per
 * benchmark: unbuffered baseline (1.0), "baseline buffered"
 * (traditional code + 256-op buffer; paper average -34.6%), and
 * "transformed buffered" (aggressive code + 256-op buffer; paper
 * average -72.3%). Per-access energies come from the CACTI-calibrated
 * model (41.8x memory/buffer ratio at 256 ops / 512 KB, §7.2).
 *
 * Usage: bench_fig8b_power [--json[=PATH]] [--history[=PATH]]
 *                          [--loops]
 *   --json[=P]     machine-readable results (default
 *                  BENCH_fig8b.json); energies are deterministic, so
 *                  the dump is diffable counter-exact by the
 *                  regression gate
 *   --history[=P]  also append the flattened document to the
 *                  BENCH_history.jsonl timeline (implies --json)
 *   --loops        per-loop scorecard for every workload
 *                  (aggressive, 256-op buffer) after the table
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "support/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main(int argc, char **argv)
{
    BenchOptions o;
    if (!parseBenchOptions(argc, argv,
                           kBenchFlagJson | kBenchFlagHistory |
                               kBenchFlagLoops,
                           "BENCH_fig8b.json", o))
        return 2;

    std::printf("=== Figure 8b: normalized instruction fetch power "
                "===\n\n");
    const CactiLite model;
    std::printf("CACTI-lite calibration: memory/buffer per-access "
                "ratio = %.1fx (paper: 41.8x)\n\n",
                model.calibratedRatio());

    std::printf("%-12s %12s %14s %16s\n", "benchmark", "unbuffered",
                "base-buffered", "transformed");
    rule();

    struct Row
    {
        std::string name;
        double baseBuffered = 0;
        double transformed = 0;
    };
    std::vector<Row> rows;
    double sumBase = 0, sumTrans = 0;
    int n = 0;
    obs::CycleRow cycles{}; // transformed-buffered runs, summed
    for (const auto &name : benchNames()) {
        auto &trad = compileBench(name, OptLevel::Traditional);
        auto &aggr = compileBench(name, OptLevel::Aggressive);
        const SimStats st = simulate(trad, 256);
        obs::CycleStack cs;
        const SimStats sa = simulate(aggr, 256, PredMode::SLOT,
                                     SimEngine::DECODED, nullptr, &cs);
        const obs::CycleRow row = cs.totals();
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            cycles[k] += row[k];

        const double unbuffered =
            unbufferedEnergyNj(st.opsFetched, model);
        const double baseBuffered =
            computeFetchEnergy(st, 256, model).totalNj;
        const double transformed =
            computeFetchEnergy(sa, 256, model).totalNj;

        const double b = baseBuffered / unbuffered;
        const double t = transformed / unbuffered;
        std::printf("%-12s %12.3f %14.3f %16.3f\n", name.c_str(), 1.0,
                    b, t);
        rows.push_back({name, b, t});
        sumBase += b;
        sumTrans += t;
        ++n;
    }
    rule();
    const double avgBase = sumBase / n;
    const double avgTrans = sumTrans / n;
    std::printf("\naverage baseline-buffered reduction:    %s "
                "(paper: 34.6%%)\n", pct(1.0 - avgBase).c_str());
    std::printf("average transformed-buffered reduction: %s "
                "(paper: 72.3%%)\n", pct(1.0 - avgTrans).c_str());

    if (o.loops) {
        std::printf("\n=== Per-loop scorecards (aggressive, 256-op "
                    "buffer) ===\n\n");
        dumpLoopScorecards(OptLevel::Aggressive, 256);
    }
    if (o.json) {
        using obs::Json;
        Json doc = benchJsonDoc("fig8b");

        Json config = Json::object();
        config.set("bufferOps", Json::integer(256));
        config.set("memoryBufferRatio",
                   Json::number(model.calibratedRatio()));
        doc.set("config", std::move(config));

        Json pts = Json::array();
        for (const auto &r : rows) {
            Json row = Json::object();
            row.set("workload", Json::str(r.name));
            row.set("baseBuffered", Json::number(r.baseBuffered));
            row.set("transformed", Json::number(r.transformed));
            pts.push(std::move(row));
        }
        doc.set("points", std::move(pts));

        Json avg = Json::object();
        avg.set("baseBuffered", Json::number(avgBase));
        avg.set("transformed", Json::number(avgTrans));
        doc.set("average", std::move(avg));

        // Closed cycle accounting of the transformed-buffered runs
        // (aggressive, 256-op buffer), summed over every workload.
        doc.set("cycle_stack", cycleStackJson(cycles));

        writeBenchJson(o.jsonPath, doc);
        if (!o.historyPath.empty())
            appendBenchHistory(o.historyPath, doc);
    }
    return 0;
}
