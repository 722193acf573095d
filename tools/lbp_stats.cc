/**
 * @file
 * Observability front door: run a workload and pretty-print / dump the
 * metrics registry, diff two registry dumps, export a cycle-level
 * Chrome trace (Perfetto-loadable), maintain the bench-history
 * timeline, and render the self-contained HTML flight recorder.
 *
 *   lbp_stats run <workload> [options]     registry table + dumps
 *   lbp_stats diff <a.json> <b.json>       field-by-field dump diff
 *   lbp_stats trace <workload> [options]   Chrome trace-event JSON
 *   lbp_stats loops <workload> [options]   per-loop scorecard
 *   lbp_stats explain <a.json> <b.json>    cycle delta by class x loop
 *   lbp_stats history append <doc.json>    flatten + append one record
 *   lbp_stats history list                 one line per stored record
 *   lbp_stats history check <doc.json>     statistical regression gate
 *   lbp_stats history prune --keep=N       keep newest N per source
 *   lbp_stats report <workload> [options]  single-file HTML report
 *   lbp_stats prof <workload> [options]    sampling self-profile
 *   lbp_stats --trace <workload>           alias for `trace`
 *   lbp_stats --version                    git SHA + schema versions
 *
 * Options:
 *   --level=aggressive|traditional   compile configuration
 *   --buffer=N                       loop buffer size in ops (256;
 *                                    0..1048576)
 *   --engine=decoded|reference       simulator engine (decoded);
 *                                    `trace` always simulates on
 *                                    reference, the engine that
 *                                    carries the event hooks
 *   --json=FILE                      write the registry dump / check
 *                                    verdict as JSON
 *   --csv=FILE                       write the registry dump as CSV
 *   --out=FILE                       trace / report output path
 *   --sample=N                       keep 1/N of Fetch/Branch/Nullify
 *   --capacity=N                     trace ring capacity in events
 *   --history=FILE                   jsonl store (BENCH_history.jsonl)
 *   --source=NAME                    override the record source tag
 *   --window=N --rel=X --abs=X --madk=K   gate thresholds (history.hh)
 *   --sort=ops|gain|evictions|bailouts|replay
 *                                    `loops` ranking key: total
 *                                    dynamic ops (default), realized
 *                                    buffer gain (ops issued from the
 *                                    buffer), eviction count,
 *                                    trace-cache bailout count, or
 *                                    trace-replayed op count
 *   --cycles                         `loops` also prints the per-loop
 *                                    cycle stack table
 *   --keep=N                         `history prune` retention per
 *                                    source
 *   --hz=N --reps=N                  `prof` sampling rate (1..100000)
 *                                    / workload repetitions (reps=0
 *                                    sizes the run for a stable
 *                                    sample count)
 *   --verbose                        `history check` prints every key
 *
 * Every numeric flag must be one whole base-10 number inside its
 * range; anything else exits 2 naming the flag and the value. A flag
 * the command does not read (say --out to `run`) exits 2 too, naming
 * the flag and the command.
 *
 * `trace` cross-checks the trace against the registry before writing:
 * the sum of ops carried by buffer-hit events must equal the run's
 * sim.opsFromBuffer counter exactly (structural kinds are exempt from
 * sampling and aggregates are immune to ring overflow, so this holds
 * at any capacity). A mismatch is a simulator/tracing bug and exits
 * nonzero.
 *
 * `history check` exits 1 when the gate fails (a regression, an exact
 * mismatch, a non-finite value, or a vanished key), naming each
 * offending key on stdout; see obs/history.hh for the window math.
 */

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/compiler.hh"
#include "obs/history.hh"
#include "obs/json.hh"
#include "obs/loop_report.hh"
#include "obs/prof.hh"
#include "obs/publish.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "obs/version.hh"
#include "power/fetch_energy.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace
{

using namespace lbp;

/**
 * Largest accepted --buffer: far above any buffer the paper sizes,
 * and small enough that buffer-size arithmetic (bytes, addresses)
 * stays inside int.
 */
constexpr int kMaxBufferOps = 1 << 20;

/** Largest accepted --hz: a 10 us sampling interval. */
constexpr unsigned kMaxHz = 100'000;

struct Options
{
    std::string command;
    std::vector<std::string> positional;
    OptLevel level = OptLevel::Aggressive;
    int bufferOps = 256;
    SimEngine engine = SimEngine::DECODED;
    std::string jsonPath;
    std::string csvPath;
    std::string outPath;
    std::uint64_t sample = 1;
    std::size_t capacity = 1u << 20;
    std::string historyPath = "BENCH_history.jsonl";
    std::string source;
    obs::CheckPolicy policy;
    std::string sort = "ops";
    unsigned hz = obs::prof::kDefaultHz;
    int reps = 0;  ///< prof repetitions; 0 = auto (sample target)
    int keep = 0;  ///< history prune: newest N records per source
    bool cycles = false;  ///< loops: print the per-loop cycle stack
    bool verbose = false;
    std::vector<std::string> flags;  ///< every flag given, by name
};

int
usage()
{
    std::cerr
        << "usage: lbp_stats run <workload> [--level=L] [--buffer=N]\n"
        << "                 [--engine=E] [--json=F] [--csv=F]\n"
        << "       lbp_stats diff <a.json> <b.json>\n"
        << "       lbp_stats trace <workload> [--out=F] [--sample=N]\n"
        << "                 [--capacity=N] [--buffer=N] [--level=L]\n"
        << "                 (always simulates on the reference engine)\n"
        << "       lbp_stats loops <workload> [--level=L] [--buffer=N]\n"
        << "                 [--engine=E] [--json=F] [--sort=S]\n"
        << "                 [--cycles]\n"
        << "       lbp_stats explain <a.json> <b.json>\n"
        << "       lbp_stats history append <doc.json> [--history=F]\n"
        << "                 [--source=NAME]\n"
        << "       lbp_stats history list [--history=F]\n"
        << "       lbp_stats history check <doc.json> [--history=F]\n"
        << "                 [--window=N] [--rel=X] [--abs=X]\n"
        << "                 [--madk=K] [--json=F] [--verbose]\n"
        << "       lbp_stats history prune --keep=N [--history=F]\n"
        << "       lbp_stats report <workload> [--out=F] [--history=F]\n"
        << "                 [--level=L] [--buffer=N] [--engine=E]\n"
        << "                 [--hz=N] [--window=N] [--rel=X] [--abs=X]\n"
        << "                 [--madk=K]\n"
        << "       lbp_stats prof <workload> [--hz=N] [--reps=N]\n"
        << "                 [--out=F] [--level=L] [--buffer=N]\n"
        << "                 [--engine=E] [--json=F]\n"
        << "       lbp_stats list\n"
        << "       lbp_stats --version\n"
        << "\nworkloads:\n";
    for (const auto &w : workloads::allWorkloads())
        std::cerr << "  " << w.name << "  (" << w.description << ")\n";
    return 2;
}

/**
 * The one parser behind every numeric flag: all of @p text must be a
 * single base-10 number (finite, for a real) in [@p lo, @p hi]. On
 * anything else it names the flag and the rejected value on stderr
 * and returns false, which main() turns into exit 2.
 */
template <class T>
bool
parseNumber(const char *flag, const char *text, T lo, T hi, T &out)
{
    const char *const end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    bool ok = ec == std::errc() && ptr == end && v >= lo && v <= hi;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (ok) {
        out = v;
        return true;
    }
    std::cerr << "invalid " << flag << " value '" << text
              << "': expected "
              << (std::is_floating_point_v<T> ? "a number" : "an integer");
    if (hi == std::numeric_limits<T>::max())
        std::cerr << " >= " << lo << "\n";
    else
        std::cerr << " in [" << lo << ", " << hi << "]\n";
    return false;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    constexpr int kIntMax = std::numeric_limits<int>::max();
    constexpr double kRealMax = std::numeric_limits<double>::max();
    if (argc < 2)
        return false;
    o.command = argv[1];
    if (o.command == "--trace")
        o.command = "trace";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.compare(0, 2, "--") == 0)
            o.flags.push_back(arg.substr(0, arg.find('=')));
        auto val = [&](const char *key) -> const char * {
            const size_t n = std::strlen(key);
            if (arg.compare(0, n, key) == 0 && arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        if (const char *v = val("--level")) {
            const std::string s = v;
            if (s == "aggressive") {
                o.level = OptLevel::Aggressive;
            } else if (s == "traditional") {
                o.level = OptLevel::Traditional;
            } else {
                std::cerr << "unknown level '" << s << "'\n";
                return false;
            }
        } else if (const char *v2 = val("--buffer")) {
            if (!parseNumber("--buffer", v2, 0, kMaxBufferOps,
                             o.bufferOps))
                return false;
        } else if (const char *v3 = val("--engine")) {
            const std::string s = v3;
            if (s == "decoded") {
                o.engine = SimEngine::DECODED;
            } else if (s == "reference") {
                o.engine = SimEngine::REFERENCE;
            } else {
                std::cerr << "unknown engine '" << s << "'\n";
                return false;
            }
        } else if (const char *v4 = val("--json")) {
            o.jsonPath = v4;
        } else if (const char *v5 = val("--csv")) {
            o.csvPath = v5;
        } else if (const char *v6 = val("--out")) {
            o.outPath = v6;
        } else if (const char *v7 = val("--sample")) {
            if (!parseNumber<std::uint64_t>(
                    "--sample", v7, 1,
                    std::numeric_limits<std::uint64_t>::max(),
                    o.sample))
                return false;
        } else if (const char *v8 = val("--capacity")) {
            if (!parseNumber<std::size_t>(
                    "--capacity", v8, 1,
                    std::numeric_limits<std::size_t>::max(),
                    o.capacity))
                return false;
        } else if (const char *v9 = val("--history")) {
            o.historyPath = v9;
        } else if (const char *v10 = val("--source")) {
            o.source = v10;
        } else if (const char *v11 = val("--window")) {
            if (!parseNumber("--window", v11, 1, kIntMax,
                             o.policy.window))
                return false;
        } else if (const char *v12 = val("--rel")) {
            if (!parseNumber("--rel", v12, 0.0, kRealMax,
                             o.policy.relTol))
                return false;
        } else if (const char *v13 = val("--abs")) {
            if (!parseNumber("--abs", v13, 0.0, kRealMax,
                             o.policy.absTol))
                return false;
        } else if (const char *v14 = val("--madk")) {
            if (!parseNumber("--madk", v14, 0.0, kRealMax,
                             o.policy.madK))
                return false;
        } else if (const char *v15 = val("--sort")) {
            o.sort = v15;
            if (o.sort != "ops" && o.sort != "gain" &&
                o.sort != "evictions" && o.sort != "bailouts" &&
                o.sort != "replay") {
                std::cerr << "unknown sort key '" << o.sort
                          << "' (ops|gain|evictions|bailouts|"
                             "replay)\n";
                return false;
            }
        } else if (const char *v16 = val("--hz")) {
            if (!parseNumber("--hz", v16, 1u, kMaxHz, o.hz))
                return false;
        } else if (const char *v17 = val("--reps")) {
            if (!parseNumber("--reps", v17, 0, kIntMax, o.reps))
                return false;
        } else if (const char *v18 = val("--keep")) {
            if (!parseNumber("--keep", v18, 1, kIntMax, o.keep))
                return false;
        } else if (arg == "--cycles") {
            o.cycles = true;
        } else if (arg == "--verbose") {
            o.verbose = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return false;
        } else {
            o.positional.push_back(arg);
        }
    }
    return true;
}

/**
 * Every flag given must be one the command reads (for `history`, the
 * action): a flag another command takes would otherwise be silently
 * ignored, and a misplaced --out or --json would look like it worked.
 * On a stray flag it names the flag and the command on stderr and
 * returns false, which main() turns into usage and exit 2.
 */
bool
checkFlagsApply(const Options &o)
{
    static const std::map<std::string, std::vector<std::string>> kReads = {
        {"run", {"--level", "--buffer", "--engine", "--json", "--csv"}},
        {"diff", {}},
        {"trace", {"--out", "--sample", "--capacity", "--buffer", "--level"}},
        {"loops",
         {"--level", "--buffer", "--engine", "--json", "--sort",
          "--cycles"}},
        {"explain", {}},
        {"history append", {"--history", "--source"}},
        {"history list", {"--history"}},
        {"history check",
         {"--history", "--window", "--rel", "--abs", "--madk", "--json",
          "--verbose"}},
        {"history prune", {"--history", "--keep"}},
        {"report",
         {"--out", "--history", "--level", "--buffer", "--engine", "--hz",
          "--window", "--rel", "--abs", "--madk"}},
        {"prof",
         {"--hz", "--reps", "--out", "--level", "--buffer", "--engine",
          "--json"}},
        {"list", {}},
        {"--version", {}},
    };
    std::string command = o.command;
    if (command == "history" && !o.positional.empty())
        command += " " + o.positional[0];
    const auto it = kReads.find(command);
    if (it == kReads.end())
        return true; // not a command: main() prints usage anyway
    for (const std::string &flag : o.flags) {
        if (std::find(it->second.begin(), it->second.end(), flag) ==
            it->second.end()) {
            std::cerr << "option '" << flag << "' does not apply to '"
                      << command << "'\n";
            return false;
        }
    }
    return true;
}

/**
 * Compile + simulate one workload, publishing everything into @p r.
 * When the decoded engine ran with its trace cache, the side counters
 * are published too and copied to @p tcOut (if given); @p tcOut is
 * left untouched otherwise.
 */
SimStats
runWorkload(const Options &o, const std::string &name,
            obs::Registry &r, obs::TraceSink *trace,
            CompileResult &cr, TraceCacheStats *tcOut = nullptr,
            obs::CycleStack *csOut = nullptr)
{
    Program prog = workloads::buildWorkload(name);
    CompileOptions copts;
    copts.level = o.level;
    copts.bufferOps = o.bufferOps;
    copts.obsRegistry = &r;
    compileProgram(prog, copts, cr);

    SimConfig sc;
    sc.bufferOps = o.bufferOps;
    sc.engine = o.engine;
    sc.trace = trace;
    VliwSim sim(cr.code, sc);
    const SimStats stats = sim.run();
    if (stats.checksum != cr.goldenChecksum) {
        std::cerr << "FATAL: simulation checksum "
                  << stats.checksum << " != golden "
                  << cr.goldenChecksum << "\n";
        std::exit(1);
    }

    r.info("workload", name);
    r.info("level", o.level == OptLevel::Aggressive ? "aggressive"
                                                    : "traditional");
    r.info("engine", o.engine == SimEngine::DECODED ? "decoded"
                                                    : "reference");
    r.info("buffer_ops", std::to_string(o.bufferOps));
    publishCompileResult(r, cr);
    publishSimStats(r, stats);
    if (const TraceCacheStats *tc = sim.traceCacheStats()) {
        obs::publishTraceCacheStats(r, *tc);
        if (tcOut)
            *tcOut = *tc;
    }
    obs::publishCycleStack(r, sim.cycleStack());
    if (csOut)
        *csOut = sim.cycleStack();
    publishFetchEnergy(r,
                       computeFetchEnergy(stats, o.bufferOps));
    return stats;
}

bool
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot open '" << path << "' for writing\n";
        return false;
    }
    emit(os);
    return os.good();
}

obs::Json
loadJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot open '" << path << "'\n";
        std::exit(1);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    obs::Json doc = obs::Json::parse(buf.str(), error);
    if (!error.empty()) {
        std::cerr << path << ": parse error: " << error << "\n";
        std::exit(1);
    }
    return doc;
}

int
cmdRun(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    obs::Registry reg;
    CompileResult cr;
    runWorkload(o, o.positional[0], reg, nullptr, cr);
    reg.writeTable(std::cout);
    if (!o.jsonPath.empty()) {
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                reg.toJson().write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "registry dump: " << o.jsonPath << "\n";
    }
    if (!o.csvPath.empty()) {
        if (!writeFile(o.csvPath, [&](std::ostream &os) {
                reg.writeCsv(os);
            }))
            return 1;
        std::cout << "registry csv: " << o.csvPath << "\n";
    }
    return 0;
}

/**
 * Is a bench-JSON key timing-like (tolerated by the regression
 * gate)? Counters, fractions, and energies must match exactly;
 * wall-clock measurements and machine-dependent knobs may not.
 */
bool
timingTolerantKey(const std::string &key)
{
    if (key == "speedup" || key == "threads" || key == "wallMs")
        return true;
    return key.size() >= 2 &&
           key.compare(key.size() - 2, 2, "Ms") == 0;
}

/**
 * Recursive diff of two BENCH_*.json documents under the
 * counters-exact / timings-tolerant policy: the "machine" identity
 * block and any timing-valued key are skipped, everything else must
 * be byte-identical.
 */
void
diffBenchJson(const obs::Json &a, const obs::Json &b,
              const std::string &path,
              std::vector<obs::DiffEntry> &out)
{
    using obs::Json;
    auto emit = [&](const Json *va, const Json *vb) {
        obs::DiffEntry d;
        d.key = path.empty() ? "<root>" : path;
        d.a = va ? va->dump() : "<absent>";
        d.b = vb ? vb->dump() : "<absent>";
        out.push_back(std::move(d));
    };
    if (a.kind() != b.kind()) {
        emit(&a, &b);
        return;
    }
    if (a.kind() == Json::Kind::Object) {
        std::vector<std::string> keys;
        for (const auto &kv : a.members())
            keys.push_back(kv.first);
        for (const auto &kv : b.members())
            if (!a.find(kv.first))
                keys.push_back(kv.first);
        for (const auto &k : keys) {
            if (k == "machine" || k == "git_sha" ||
                timingTolerantKey(k))
                continue;
            const Json *va = a.find(k);
            const Json *vb = b.find(k);
            const std::string sub =
                path.empty() ? k : path + "." + k;
            if (!va || !vb) {
                obs::DiffEntry d;
                d.key = sub;
                d.a = va ? va->dump() : "<absent>";
                d.b = vb ? vb->dump() : "<absent>";
                out.push_back(std::move(d));
                continue;
            }
            diffBenchJson(*va, *vb, sub, out);
        }
        return;
    }
    if (a.kind() == Json::Kind::Array) {
        const auto &ia = a.items();
        const auto &ib = b.items();
        const size_t n = std::max(ia.size(), ib.size());
        for (size_t i = 0; i < n; ++i) {
            const std::string sub =
                path + "[" + std::to_string(i) + "]";
            if (i >= ia.size() || i >= ib.size()) {
                obs::DiffEntry d;
                d.key = sub;
                d.a = i < ia.size() ? ia[i].dump() : "<absent>";
                d.b = i < ib.size() ? ib[i].dump() : "<absent>";
                out.push_back(std::move(d));
                continue;
            }
            diffBenchJson(ia[i], ib[i], sub, out);
        }
        return;
    }
    // Null leaves are serialized NaN/inf gauges; NaN never equals
    // anything, itself included, so null always diffs (the same
    // poison policy as obs::diffRegistries).
    if (a.kind() == Json::Kind::Null || a != b)
        emit(&a, &b);
}

int
cmdDiff(const Options &o)
{
    if (o.positional.size() != 2)
        return usage();
    const obs::Json a = loadJson(o.positional[0]);
    const obs::Json b = loadJson(o.positional[1]);

    // Registry dumps carry "metrics"/"histograms" sections and diff
    // field-by-field; BENCH_*.json documents (marked by a "bench"
    // key) diff recursively under the counters-exact /
    // timings-tolerant policy.
    std::vector<obs::DiffEntry> diffs;
    if (!a.find("metrics") && !b.find("metrics") &&
        (a.find("bench") || b.find("bench"))) {
        diffBenchJson(a, b, "", diffs);
    } else {
        diffs = obs::diffRegistries(a, b);
    }
    if (diffs.empty()) {
        std::cout << "identical (" << o.positional[0] << " vs "
                  << o.positional[1] << ")\n";
        return 0;
    }
    std::cout << diffs.size() << " field(s) differ:\n";
    for (const auto &d : diffs) {
        std::cout << "  " << d.key << ": " << d.a << " -> " << d.b
                  << "\n";
    }
    return 1;
}

int
cmdTrace(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    obs::Registry reg;
    obs::TraceSink sink(o.capacity, o.sample);
    CompileResult cr;
    const SimStats stats = runWorkload(o, name, reg, &sink, cr);

    // The headline integrity check: buffer-hit events carry the ops
    // count of each bundle issued from the buffer, so their sum must
    // equal the simulator's own counter exactly.
    const std::int64_t bufOps =
        sink.sumA(obs::TraceKind::BufHit);
    if (bufOps < 0 ||
        static_cast<std::uint64_t>(bufOps) != stats.opsFromBuffer) {
        std::cerr << "FATAL: trace buffer-hit ops " << bufOps
                  << " != sim.opsFromBuffer " << stats.opsFromBuffer
                  << "\n";
        return 1;
    }

    std::vector<std::string> loopNames;
    for (const auto &ls : stats.loops)
        loopNames.push_back(ls.name);

    const std::string out =
        o.outPath.empty() ? name + ".trace.json" : o.outPath;
    if (!writeFile(out, [&](std::ostream &os) {
            obs::writeChromeTrace(os, sink, loopNames);
        }))
        return 1;

    const auto spans = obs::residencyTimeline(sink);
    std::uint64_t bufferedCycles = 0;
    for (const auto &sp : spans)
        if (sp.fromBuffer)
            bufferedCycles += sp.exitCycle - sp.enterCycle;

    std::cout << "workload:         " << name << "\n"
              << "cycles:           " << stats.cycles << "\n"
              << "events recorded:  " << sink.size() << "\n"
              << "events dropped:   " << sink.dropped() << "\n"
              << "events sampled:   " << sink.sampledOut() << "\n"
              << "loop activations: " << spans.size() << "\n"
              << "buffered cycles:  " << bufferedCycles << "\n"
              << "buffer-hit ops:   " << bufOps
              << " (== sim.opsFromBuffer: ok)\n"
              << "trace:            " << out << "\n"
              << "load it at https://ui.perfetto.dev or "
                 "chrome://tracing\n";
    return 0;
}

int
cmdLoops(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    obs::Registry reg;
    CompileResult cr;
    TraceCacheStats tc;
    obs::CycleStack cs;
    const SimStats stats = runWorkload(o, name, reg, nullptr, cr,
                                       &tc, &cs);
    const FetchEnergy fe = computeFetchEnergy(stats, o.bufferOps);

    // The join asserts the headline invariants internally: the sum of
    // per-loop buffer-issued ops equals sim.opsFromBuffer exactly,
    // and the cycle stack is closed over classes and loops.
    obs::LoopScorecard sc = obs::buildLoopScorecard(
        name, cr.loopLog, stats, o.bufferOps, &fe, &tc, &cs);

    // Re-rank on request; the default build order is dynOps.
    if (o.sort != "ops") {
        auto key = [&](const obs::ScorecardRow &r) {
            if (o.sort == "gain")
                return r.opsFromBuffer;
            if (o.sort == "bailouts")
                return r.bailouts;
            if (o.sort == "replay")
                return r.replayedOps;
            return r.evictions;
        };
        std::stable_sort(
            sc.rows.begin(), sc.rows.end(),
            [&key](const obs::ScorecardRow &a,
                   const obs::ScorecardRow &b) {
                return key(a) > key(b);
            });
    }
    obs::publishScorecard(reg, sc);

    obs::printScorecard(std::cout, sc);
    if (o.cycles) {
        std::cout << "\n";
        obs::printScorecardCycles(std::cout, sc);
    }
    if (!o.jsonPath.empty()) {
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                obs::scorecardToJson(sc).write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "scorecard dump: " << o.jsonPath << "\n";
    }
    return 0;
}

int
cmdList()
{
    for (const auto &w : workloads::allWorkloads())
        std::cout << w.name << "\n";
    return 0;
}

int
cmdHistory(const Options &o)
{
    if (o.positional.empty())
        return usage();
    const std::string &sub = o.positional[0];

    if (sub == "list") {
        if (o.positional.size() != 1)
            return usage();
        std::string error;
        const auto recs = obs::loadHistory(o.historyPath, error);
        if (!error.empty()) {
            std::cerr << error << "\n";
            return 1;
        }
        int i = 0;
        for (const auto &rec : recs) {
            std::cout << i++ << "  " << rec.source << "  "
                      << rec.gitSha << "  " << rec.values.size()
                      << " value(s)\n";
        }
        std::cout << recs.size() << " record(s) in " << o.historyPath
                  << "\n";
        return 0;
    }

    if (sub == "prune") {
        if (o.positional.size() != 1)
            return usage();
        if (o.keep < 1) {
            std::cerr << "history prune needs --keep=N (N >= 1)\n";
            return 2;
        }
        std::string error;
        int removed = 0;
        if (!obs::pruneHistory(o.historyPath, o.keep, error,
                               &removed)) {
            std::cerr << error << "\n";
            return 1;
        }
        std::cout << "pruned " << removed << " record(s) from "
                  << o.historyPath << " (keeping newest " << o.keep
                  << " per source)\n";
        return 0;
    }

    if (o.positional.size() != 2)
        return usage();
    const obs::Json doc = loadJson(o.positional[1]);

    if (sub == "append") {
        const obs::HistoryRecord rec =
            obs::makeHistoryRecord(doc, o.source);
        std::string error;
        if (!obs::appendHistory(o.historyPath, rec, error)) {
            std::cerr << error << "\n";
            return 1;
        }
        std::cout << "appended " << rec.source << " record ("
                  << rec.values.size() << " values, " << rec.gitSha
                  << ") to " << o.historyPath << "\n";
        return 0;
    }

    if (sub == "check") {
        std::string error;
        const auto recs = obs::loadHistory(o.historyPath, error);
        if (!error.empty()) {
            std::cerr << error << "\n";
            return 1;
        }
        const obs::CheckReport report =
            obs::checkAgainstHistory(recs, doc, o.policy);
        report.print(std::cout, o.verbose);
        if (!o.jsonPath.empty()) {
            if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                    report.toJson().write(os);
                    os << "\n";
                }))
                return 1;
            std::cout << "verdict dump: " << o.jsonPath << "\n";
        }
        return report.failed() ? 1 : 0;
    }
    return usage();
}

/**
 * If @p key's last dotted segment names a CycleClass, return its
 * index and leave the preceding segments in @p ctxTail; -1 otherwise.
 * Registry dumps flatten "sim.cycles.issueFromBuffer" into one member
 * name, while bench/scorecard documents nest {"cycle_stack":
 * {"issueFromBuffer": N}} — matching the final segment covers both.
 */
int
cycleClassOfKey(const std::string &key, std::string &ctxTail)
{
    const std::size_t cut = key.rfind('.');
    const std::string seg =
        cut == std::string::npos ? key : key.substr(cut + 1);
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
        if (seg == obs::cycleClassName(
                       static_cast<obs::CycleClass>(k))) {
            ctxTail =
                cut == std::string::npos ? "" : key.substr(0, cut);
            return static_cast<int>(k);
        }
    }
    return -1;
}

using CycleRowD = std::array<double, obs::kNumCycleClasses>;

/** Collect every cycle-class numeric leaf, grouped by context path. */
void
collectCycleLeaves(const obs::Json &node, const std::string &path,
                   std::map<std::string, CycleRowD> &out)
{
    using obs::Json;
    if (node.kind() == Json::Kind::Object) {
        for (const auto &kv : node.members()) {
            std::string tail;
            const int k = cycleClassOfKey(kv.first, tail);
            if (k >= 0 && kv.second.isNumber()) {
                std::string ctx = path;
                if (!tail.empty())
                    ctx += ctx.empty() ? tail : "." + tail;
                out[ctx][static_cast<std::size_t>(k)] +=
                    kv.second.asDouble();
            } else {
                collectCycleLeaves(kv.second,
                                   path.empty()
                                       ? kv.first
                                       : path + "." + kv.first,
                                   out);
            }
        }
    } else if (node.kind() == Json::Kind::Array) {
        const auto &items = node.items();
        for (std::size_t i = 0; i < items.size(); ++i)
            collectCycleLeaves(items[i],
                               path + "[" + std::to_string(i) + "]",
                               out);
    }
}

/**
 * Decompose the simulated-cycle delta between two documents by
 * CycleClass x context (loop row, workload stack, registry counter —
 * any grouping either document carries). Prints the grand total, the
 * per-class split, and every (context, class) mover ranked by |delta|.
 */
int
cmdExplain(const Options &o)
{
    if (o.positional.size() != 2)
        return usage();
    const obs::Json a = loadJson(o.positional[0]);
    const obs::Json b = loadJson(o.positional[1]);

    std::map<std::string, CycleRowD> ma, mb;
    collectCycleLeaves(a, "", ma);
    collectCycleLeaves(b, "", mb);
    if (ma.empty() || mb.empty()) {
        // A document without any cycle-class leaf cannot be
        // explained — a usage-class error (exit 2, like bad flags),
        // distinct from runtime failures (exit 1). Name the
        // offending document(s) and the keys that were expected.
        if (ma.empty())
            std::cerr << "explain: no cycle-class keys in "
                      << o.positional[0] << "\n";
        if (mb.empty())
            std::cerr << "explain: no cycle-class keys in "
                      << o.positional[1] << "\n";
        std::cerr << "expected leaves named after a cycle class (";
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            std::cerr << (k ? ", " : "")
                      << obs::cycleClassName(
                             static_cast<obs::CycleClass>(k));
        std::cerr << ") as in schema v4+ bench JSON, a registry "
                     "dump with sim.cycles.*, or a scorecard dump\n";
        return 2;
    }

    std::map<std::string, char> ctxs;
    for (const auto &kv : ma)
        ctxs[kv.first] = 1;
    for (const auto &kv : mb)
        ctxs[kv.first] = 1;

    struct Entry
    {
        std::string ctx;
        std::size_t cls;
        double va, vb;
    };
    std::vector<Entry> entries;
    CycleRowD clsA{}, clsB{};
    double totA = 0, totB = 0;
    for (const auto &ckv : ctxs) {
        const CycleRowD ra = ma.count(ckv.first) ? ma[ckv.first]
                                                 : CycleRowD{};
        const CycleRowD rb = mb.count(ckv.first) ? mb[ckv.first]
                                                 : CycleRowD{};
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
            clsA[k] += ra[k];
            clsB[k] += rb[k];
            totA += ra[k];
            totB += rb[k];
            if (ra[k] != rb[k])
                entries.push_back({ckv.first, k, ra[k], rb[k]});
        }
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &x, const Entry &y) {
                         return std::abs(x.vb - x.va) >
                                std::abs(y.vb - y.va);
                     });

    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return std::string(buf);
    };
    auto delta = [&](double va, double vb) {
        const double d = vb - va;
        return (d >= 0 ? "+" : "") + num(d);
    };

    std::cout << "cycle delta: " << o.positional[0] << " -> "
              << o.positional[1] << "\n";
    std::cout << "total: " << num(totA) << " -> " << num(totB)
              << " (" << delta(totA, totB) << ")\n\nby class:\n";
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
        if (clsA[k] == 0 && clsB[k] == 0)
            continue;
        std::cout << "  "
                  << obs::cycleClassName(
                         static_cast<obs::CycleClass>(k))
                  << ": " << num(clsA[k]) << " -> " << num(clsB[k])
                  << " (" << delta(clsA[k], clsB[k]) << ")\n";
    }

    if (entries.empty()) {
        std::cout << "\nno per-context movement: the stacks are "
                     "identical\n";
    } else {
        const std::size_t kMaxEntries = 40;
        std::cout << "\nby context x class (ranked by |delta|):\n";
        for (std::size_t i = 0;
             i < entries.size() && i < kMaxEntries; ++i) {
            const Entry &e = entries[i];
            std::cout << "  " << (e.ctx.empty() ? "<root>" : e.ctx)
                      << " . "
                      << obs::cycleClassName(
                             static_cast<obs::CycleClass>(e.cls))
                      << ": " << num(e.va) << " -> " << num(e.vb)
                      << " (" << delta(e.va, e.vb) << ")\n";
        }
        if (entries.size() > kMaxEntries)
            std::cout << "  ... " << entries.size() - kMaxEntries
                      << " further mover(s) elided\n";
    }
    return 0;
}

/** Core of the self-profile snapshot as report/dump JSON. */
obs::Json
profSnapshotJson(const obs::prof::Snapshot &snap)
{
    obs::Json doc = obs::Json::object();
    doc.set("samples", obs::Json::uinteger(snap.samples));
    doc.set("dropped", obs::Json::uinteger(snap.dropped));
    doc.set("untracked", obs::Json::uinteger(snap.untracked));
    doc.set("attributed_fraction",
            obs::Json::number(snap.attributedFraction()));
    obs::Json regions = obs::Json::object();
    for (const auto &rc : snap.regions)
        regions.set(rc.label, obs::Json::uinteger(rc.count));
    doc.set("regions", regions);
    return doc;
}

int
cmdReport(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    // Self-profile the report's own workload run so the "where the
    // host cycles go" section describes exactly the run whose
    // counters fill the rest of the document. Best-effort: when the
    // timer cannot be armed the section degrades to its placeholder.
    obs::prof::Profiler &prof = obs::prof::Profiler::instance();
    const bool profiling = prof.start(o.hz);

    obs::Registry reg;
    CompileResult cr;
    TraceCacheStats tc;
    obs::CycleStack cs;
    const SimStats stats = runWorkload(o, name, reg, nullptr, cr,
                                       &tc, &cs);
    const FetchEnergy fe = computeFetchEnergy(stats, o.bufferOps);
    const obs::LoopScorecard sc = obs::buildLoopScorecard(
        name, cr.loopLog, stats, o.bufferOps, &fe, &tc, &cs);

    obs::ReportData data;
    data.workload = name;
    data.registryDoc = reg.toJson();
    data.scorecard = obs::scorecardToJson(sc);
    if (profiling) {
        prof.stop();
        data.prof = profSnapshotJson(prof.snapshot());
    }

    std::string error;
    data.history = obs::loadHistory(o.historyPath, error);
    if (!error.empty()) {
        std::cerr << error << "\n";
        return 1;
    }
    if (!data.history.empty())
        data.historyPath = o.historyPath;

    // Fold the regression verdict in when the store has a baseline
    // for this registry document.
    const obs::CheckReport check =
        obs::checkAgainstHistory(data.history, data.registryDoc,
                                 o.policy);
    if (check.baselineRecords > 0)
        data.check = check.toJson();

    const std::string out =
        o.outPath.empty() ? name + ".report.html" : o.outPath;
    if (!writeFile(out, [&](std::ostream &os) {
            obs::writeHtmlReport(os, data);
        }))
        return 1;
    std::cout << "report: " << out << " (" << data.history.size()
              << " history record(s)"
              << (check.baselineRecords > 0
                      ? check.failed() ? ", gate: FAIL"
                                       : ", gate: PASS"
                      : "")
              << ")\n";
    return 0;
}

/**
 * Run the workload under the sampling self-profiler and print where
 * the host cycles went, by region. The workload is compiled and
 * simulated repeatedly (--reps, or until the sample count is stable
 * enough to rank regions) so even --quick workloads accumulate
 * statistics at the default ~1 kHz rate. Attribution is checked
 * against the samples the handler could not tag: the tool reports
 * the attributed fraction and exits nonzero only on harness errors,
 * never on attribution quality (CI smoke asserts the fraction
 * separately where the environment is controlled).
 */
int
cmdProf(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    obs::prof::Profiler &prof = obs::prof::Profiler::instance();
    if (!prof.start(o.hz)) {
        std::cerr << "lbp_stats prof: cannot arm the sampling "
                     "timer on this system\n";
        return 1;
    }

    // Repeat the full pipeline — build, compile, decode, simulate —
    // so every region has a chance to be sampled. reps=0 sizes the
    // run adaptively: stop once we hold enough samples to rank
    // regions meaningfully, with a hard cap so pathological clocks
    // cannot hang the tool.
    constexpr std::uint64_t kTargetSamples = 400;
    constexpr int kMaxAutoReps = 300;
    int reps = 0;
    for (;;) {
        ++reps;
        obs::Registry reg;
        CompileResult cr;
        runWorkload(o, name, reg, nullptr, cr);
        if (o.reps > 0) {
            if (reps >= o.reps)
                break;
        } else if (reps >= kMaxAutoReps ||
                   prof.snapshot().samples >= kTargetSamples) {
            break;
        }
    }
    prof.stop();
    const obs::prof::Snapshot snap = prof.snapshot();

    std::cout << "workload:            " << name << "\n"
              << "repetitions:         " << reps << "\n"
              << "sampling rate:       " << o.hz << " Hz\n"
              << "samples:             " << snap.samples << "\n"
              << "samples dropped:     " << snap.dropped << "\n"
              << "samples untracked:   " << snap.untracked << "\n";
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.1f%%",
                  100.0 * snap.attributedFraction());
    std::cout << "attributed:          " << frac << "\n\n";

    std::cout << "  region                       samples   share\n";
    for (const auto &rc : snap.regions) {
        char share[32];
        std::snprintf(share, sizeof(share), "%5.1f%%",
                      snap.samples
                          ? 100.0 * static_cast<double>(rc.count) /
                                static_cast<double>(snap.samples)
                          : 0.0);
        std::cout << "  " << rc.label
                  << std::string(rc.label.size() < 28
                                     ? 28 - rc.label.size()
                                     : 1,
                                 ' ')
                  << std::string(rc.count < 10        ? 6
                                 : rc.count < 100     ? 5
                                 : rc.count < 1000    ? 4
                                 : rc.count < 10000   ? 3
                                 : rc.count < 100000  ? 2
                                 : rc.count < 1000000 ? 1
                                                      : 0,
                                 ' ')
                  << rc.count << "   " << share << "\n";
    }

    if (!o.outPath.empty()) {
        if (!writeFile(o.outPath, [&](std::ostream &os) {
                os << obs::prof::collapsedStacks(snap);
            }))
            return 1;
        std::cout << "\ncollapsed stacks: " << o.outPath
                  << " (feed to flamegraph.pl / speedscope)\n";
    }
    if (!o.jsonPath.empty()) {
        obs::Json doc = profSnapshotJson(snap);
        doc.set("workload", obs::Json::str(name));
        doc.set("hz", obs::Json::uinteger(o.hz));
        doc.set("reps", obs::Json::integer(reps));
        obs::Json paths = obs::Json::array();
        for (const auto &pc : snap.paths) {
            obs::Json p = obs::Json::object();
            p.set("path", obs::Json::str(pc.label));
            p.set("samples", obs::Json::uinteger(pc.count));
            paths.push(p);
        }
        doc.set("paths", paths);
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                doc.write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "profile dump: " << o.jsonPath << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return usage();
    if (o.command == "--version") {
        std::cout << obs::versionString() << "\n";
        return 0;
    }
    // A bad workload name is a usage error, like a bad --level:
    // reject it before anything runs.
    const bool takesWorkload =
        o.command == "run" || o.command == "trace" ||
        o.command == "loops" || o.command == "report" ||
        o.command == "prof";
    if (takesWorkload && o.positional.size() == 1 &&
        !workloads::isWorkload(o.positional[0])) {
        std::cerr << "unknown workload '" << o.positional[0] << "'\n";
        return usage();
    }
    if (!checkFlagsApply(o))
        return usage();
    if (o.command == "run")
        return cmdRun(o);
    if (o.command == "diff")
        return cmdDiff(o);
    if (o.command == "trace")
        return cmdTrace(o);
    if (o.command == "loops")
        return cmdLoops(o);
    if (o.command == "explain")
        return cmdExplain(o);
    if (o.command == "history")
        return cmdHistory(o);
    if (o.command == "report")
        return cmdReport(o);
    if (o.command == "prof")
        return cmdProf(o);
    if (o.command == "list")
        return cmdList();
    return usage();
}
