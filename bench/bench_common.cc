#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "obs/history.hh"
#include "obs/loop_report.hh"
#include "obs/version.hh"
#include "sim/decoded.hh"
#include "support/logging.hh"

namespace lbp
{
namespace bench
{

bool
parseBenchOptions(int argc, char **argv, unsigned mask,
                  const std::string &defaultJsonPath,
                  BenchOptions &o)
{
    o.jsonPath = defaultJsonPath;
    auto usage = [&]() {
        std::string u = "usage: ";
        u += argv[0];
        if (mask & kBenchFlagQuick)
            u += " [--quick]";
        if (mask & kBenchFlagJson)
            u += " [--json[=PATH]]";
        if (mask & kBenchFlagHistory)
            u += " [--history[=PATH]]";
        if (mask & kBenchFlagLoops)
            u += " [--loops]";
        if (mask & kBenchFlagThreads)
            u += " [--threads=N]";
        if (mask & kBenchFlagProf)
            u += " [--prof]";
        std::fprintf(stderr, "%s\n", u.c_str());
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((mask & kBenchFlagQuick) && arg == "--quick") {
            o.quick = true;
        } else if ((mask & kBenchFlagJson) && arg == "--json") {
            o.json = true;
        } else if ((mask & kBenchFlagJson) &&
                   arg.rfind("--json=", 0) == 0) {
            o.json = true;
            o.jsonPath = arg.substr(7);
        } else if ((mask & kBenchFlagHistory) &&
                   arg == "--history") {
            o.historyPath = "BENCH_history.jsonl";
        } else if ((mask & kBenchFlagHistory) &&
                   arg.rfind("--history=", 0) == 0) {
            o.historyPath = arg.substr(10);
        } else if ((mask & kBenchFlagLoops) && arg == "--loops") {
            o.loops = true;
        } else if ((mask & kBenchFlagThreads) &&
                   arg.rfind("--threads=", 0) == 0) {
            o.threads = std::atoi(arg.c_str() + 10);
        } else if ((mask & kBenchFlagProf) && arg == "--prof") {
            o.prof = true;
        } else {
            return usage();
        }
    }
    // --history implies the JSON emission it snapshots.
    if (!o.historyPath.empty())
        o.json = true;
    return true;
}

const std::vector<int> &
figureBufferSizes()
{
    static const std::vector<int> sizes{16, 32, 64, 128, 256, 512,
                                        1024, 2048};
    return sizes;
}

CompileResult &
compileBench(const std::string &name, OptLevel level, PredMode mode)
{
    // Slot lowering only runs at the aggressive level; elsewhere both
    // PredModes map to the same compilation, so normalize the key to
    // avoid duplicate compiles.
    const bool slot =
        level != OptLevel::Aggressive || mode == PredMode::SLOT;

    // Per-entry locking so different cache keys compile concurrently
    // while a shared key compiles exactly once.
    struct Entry
    {
        std::mutex mu;
        std::unique_ptr<CompileResult> cr;
    };
    static std::mutex cacheMu;
    static std::map<std::tuple<std::string, int, bool>,
                    std::shared_ptr<Entry>> cache;

    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(cacheMu);
        auto &slotRef = cache[{name, static_cast<int>(level), slot}];
        if (!slotRef)
            slotRef = std::make_shared<Entry>();
        entry = slotRef;
    }
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->cr) {
        Program prog = workloads::buildWorkload(name);
        CompileOptions opts;
        opts.level = level;
        opts.slotLowering = slot;
        entry->cr = std::make_unique<CompileResult>();
        compileProgram(prog, opts, *entry->cr);
    }
    return *entry->cr;
}

SimStats
simulate(CompileResult &cr, int bufferOps, PredMode mode,
         SimEngine engine, TraceCacheStats *tcOut,
         obs::CycleStack *csOut)
{
    reallocateBuffers(cr, bufferOps);
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.predMode = mode;
    sc.engine = engine;
    VliwSim sim(cr.code, sc);
    SimStats st = sim.run();
    LBP_ASSERT(st.checksum == cr.goldenChecksum,
               "simulation checksum mismatch for ", cr.ir.name);
    if (tcOut)
        if (const TraceCacheStats *tc = sim.traceCacheStats())
            accumulateTraceCacheStats(*tcOut, *tc);
    if (csOut)
        *csOut = sim.cycleStack();
    return st;
}

SimStats
simulateShared(CompileResult &cr, DecodedImage &img, int bufferOps,
               PredMode mode, TraceCacheStats *tcOut,
               obs::CycleStack *csOut)
{
    reallocateBuffers(cr, bufferOps);
    rebindBufferAddresses(img, cr.code);
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.predMode = mode;
    sc.engine = SimEngine::DECODED;
    VliwSim sim(cr.code, sc, &img);
    SimStats st = sim.run();
    LBP_ASSERT(st.checksum == cr.goldenChecksum,
               "simulation checksum mismatch for ", cr.ir.name);
    if (tcOut)
        if (const TraceCacheStats *tc = sim.traceCacheStats())
            accumulateTraceCacheStats(*tcOut, *tc);
    if (csOut)
        *csOut = sim.cycleStack();
    return st;
}

std::vector<std::string>
benchNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

obs::Json
cycleStackJson(const obs::CycleRow &row)
{
    using obs::Json;
    Json j = Json::object();
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
        j.set(obs::cycleClassName(static_cast<obs::CycleClass>(k)),
              Json::uinteger(row[k]));
        total += row[k];
    }
    j.set("total", Json::uinteger(total));
    return j;
}

void
rule(char c, int n)
{
    for (int i = 0; i < n; ++i)
        std::putchar(c);
    std::putchar('\n');
}

obs::Json
benchJsonDoc(const std::string &benchName)
{
    using obs::Json;
    Json doc = Json::object();
    // Schema history lives on obs::kBenchSchemaVersion (version.hh).
    doc.set("schema_version",
            Json::integer(obs::kBenchSchemaVersion));
    doc.set("bench", Json::str(benchName));
    obs::stampVersion(doc);

    Json machine = Json::object();
    machine.set("hardware_concurrency",
                Json::integer(std::thread::hardware_concurrency()));
    machine.set("compiler", Json::str(__VERSION__));
    machine.set("pointer_bits", Json::integer(8 * sizeof(void *)));
    doc.set("machine", std::move(machine));
    return doc;
}

void
writeBenchJson(const std::string &path, const obs::Json &doc)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    doc.write(os);
    os << "\n";
    if (!os.good()) {
        std::fprintf(stderr, "write to %s failed\n", path.c_str());
        std::exit(1);
    }
    std::printf("wrote %s\n", path.c_str());
}

void
appendBenchHistory(const std::string &historyPath,
                   const obs::Json &doc)
{
    const obs::HistoryRecord rec = obs::makeHistoryRecord(doc);
    std::string error;
    if (!obs::appendHistory(historyPath, rec, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(1);
    }
    std::printf("appended %s record (%zu values, %s) to %s\n",
                rec.source.c_str(), rec.values.size(),
                rec.gitSha.c_str(), historyPath.c_str());
}

void
dumpLoopScorecard(const std::string &workload, OptLevel level,
                  int bufferOps)
{
    CompileResult &cr = compileBench(workload, level);
    TraceCacheStats tc;
    obs::CycleStack cs;
    const SimStats st =
        simulate(cr, bufferOps, PredMode::SLOT, SimEngine::DECODED,
                 &tc, &cs);
    const FetchEnergy fe = computeFetchEnergy(st, bufferOps);
    const obs::LoopScorecard sc = obs::buildLoopScorecard(
        workload, cr.loopLog, st, bufferOps, &fe, &tc, &cs);
    obs::printScorecard(std::cout, sc);
}

void
dumpLoopScorecards(OptLevel level, int bufferOps)
{
    for (const auto &name : benchNames()) {
        dumpLoopScorecard(name, level, bufferOps);
        std::putchar('\n');
    }
}

} // namespace bench
} // namespace lbp
