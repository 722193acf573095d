/**
 * @file
 * lbp_perfbench — cold end-to-end benchmark of the lbp pipeline.
 *
 * One process runs one named workload. Set-up builds every program
 * and interprets it with the tree-walking IR interpreter for its
 * golden checksum and return values (the independent oracle: never
 * taken from the compiler under test). Timed passes of batch jobs
 * follow until --seconds have elapsed. A job is one (program, level,
 * pred mode) compile plus all of its simulation points; nothing is
 * reused across jobs and no compile cache is used.
 *
 *   cli_run       per program, what `lbp_stats run` does: build,
 *                 compile Aggressive/SLOT with a registry attached,
 *                 construct VliwSim at 256 ops (decodes inside the
 *                 constructor), run, fetch energy, publish into an
 *                 obs::Registry and serialize it to a string. Serial;
 *                 the seed permutes job order.
 *   fig7_sweep    the Figure-7 sweep: 11 programs x {Traditional,
 *                 Aggressive} x {SLOT, REGISTER} x 8 sizes = 352
 *                 points from 33 compiles, each compile sharing one
 *                 decoded image across its sizes. Jobs run on
 *                 support/thread_pool with min(4, nproc) threads; the
 *                 seed permutes job order.
 *   buffer_curve  per program, one Aggressive/SLOT compile simulated
 *                 at 96 distinct buffer sizes in [16, 2048] drawn by
 *                 the seed (one per equal-width stratum), with one
 *                 shared decode. Serial.
 *
 * Every point is checked against the golden result; a compile that
 * throws, or whose own golden checksum disagrees, fails all of its
 * job's points. Each point's modelled result must also repeat exactly
 * in every pass. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer ones (README.md).
 *
 * Usage: lbp_perfbench --workload NAME --seed N --seconds S
 *                      --trace 0|1 [--out-dir DIR] [--corrupt-job K]
 *   --out-dir      where --trace 1 writes <workload>.trace.json
 *                  (Chrome trace events) and <workload>.bench.json
 *                  (cycle_stack block for `lbp_stats explain`)
 *   --corrupt-job  self-test hook: corrupt the expected checksum of
 *                  job K (benchmark side only) so its points fail
 */

#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "core/compiler.hh"
#include "ir/interpreter.hh"
#include "obs/cycle_stack.hh"
#include "obs/json.hh"
#include "obs/publish.hh"
#include "obs/registry.hh"
#include "power/fetch_energy.hh"
#include "sim/decoded.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "spans.hh"
#include "support/random.hh"
#include "support/thread_pool.hh"
#include "workloads/registry.hh"

using namespace lbp;
using namespace perfbench;

namespace
{

constexpr int kSetupReps = 15;
constexpr int kCurveSizes = 96;
constexpr int kMinBufferOps = 16;
constexpr int kMaxBufferOps = 2048;
/** Traced passes whose spans are exported (the ledger uses all). */
constexpr std::size_t kExportedPasses = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string outDir = ".";
    int corruptJob = -1;
};

/** One compile and the pred modes simulated on it. */
struct JobSpec
{
    int program = 0; ///< index into the program list
    OptLevel level = OptLevel::Aggressive;
    bool slotLowering = true;
    std::vector<PredMode> modes;
};

struct Workload
{
    bool cli = false;       ///< lbp_stats-run style jobs (cli_run)
    std::vector<std::string> programs;
    std::vector<JobSpec> jobs;
    std::vector<int> sizes; ///< buffer sizes simulated per mode
    int threads = 1;
    bool permute = false;   ///< the seed permutes job order each pass
};

/** The oracle's answer for one program. */
struct Golden
{
    std::uint64_t checksum = 0;
    std::vector<std::int64_t> returns;
    std::uint64_t dynOps = 0;

    bool operator==(const Golden &) const = default;
};

/** A point's modelled result; must repeat exactly in every pass. */
struct PointSig
{
    std::uint64_t cycles = 0;
    std::uint64_t bundles = 0;
    std::uint64_t opsFetched = 0;
    std::uint64_t opsFromBuffer = 0;
    std::uint64_t opsNullified = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchesTaken = 0;
    std::uint64_t checksum = 0;
    double energyNj = 0;
    double unbufferedNj = 0;

    bool operator==(const PointSig &) const = default;

    /** Same functional execution (only buffer residency may differ). */
    bool sameExecution(const PointSig &o) const
    {
        return bundles == o.bundles && opsFetched == o.opsFetched &&
               opsNullified == o.opsNullified &&
               branches == o.branches &&
               branchesTaken == o.branchesTaken &&
               checksum == o.checksum;
    }
};

/** Everything one job produced in one pass. */
struct JobOut
{
    double startUs = 0;
    double endUs = 0;
    std::uint64_t codeOps = 0;
    std::vector<PointSig> sigs;     ///< mode-major, then size
    std::vector<char> pointFailed;
    std::string error;              ///< first exception, if any
    TraceCacheStats tc;
    obs::CycleRow cycles{};
    std::uint64_t loopEvictions = 0;
    std::map<std::string, double> phaseMs; ///< compile.phase.* (traced)
    SpanLog log;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.programs = bench::benchNames();
    const int n = static_cast<int>(w.programs.size());
    if (name == "cli_run") {
        w.cli = true;
        w.sizes = {256};
        w.permute = true;
        for (int p = 0; p < n; ++p)
            w.jobs.push_back({p, OptLevel::Aggressive, true,
                              {PredMode::SLOT}});
    } else if (name == "fig7_sweep") {
        w.sizes = bench::figureBufferSizes();
        w.permute = true;
        cpu_set_t set;
        CPU_ZERO(&set);
        const int nproc =
            sched_getaffinity(0, sizeof(set), &set) == 0
                ? CPU_COUNT(&set)
                : 1;
        w.threads = std::clamp(nproc, 1, 4);
        // Slot lowering runs only at Aggressive, so one Traditional
        // compile serves both pred modes: 33 compiles, 352 points.
        for (int p = 0; p < n; ++p) {
            w.jobs.push_back({p, OptLevel::Traditional, true,
                              {PredMode::SLOT, PredMode::REGISTER}});
            w.jobs.push_back({p, OptLevel::Aggressive, true,
                              {PredMode::SLOT}});
            w.jobs.push_back({p, OptLevel::Aggressive, false,
                              {PredMode::REGISTER}});
        }
    } else if (name == "buffer_curve") {
        // One size per equal-width stratum of [16, 2048]: distinct by
        // construction and spread over the whole range.
        Rng rng(seed);
        const int span = kMaxBufferOps - kMinBufferOps + 1;
        for (int i = 0; i < kCurveSizes; ++i) {
            const int lo = kMinBufferOps + i * span / kCurveSizes;
            const int hi =
                kMinBufferOps + (i + 1) * span / kCurveSizes - 1;
            w.sizes.push_back(
                static_cast<int>(rng.nextRange(lo, hi)));
        }
        for (int p = 0; p < n; ++p)
            w.jobs.push_back({p, OptLevel::Aggressive, true,
                              {PredMode::SLOT}});
    } else {
        std::fprintf(stderr,
                     "unknown workload '%s' "
                     "(cli_run|fig7_sweep|buffer_curve)\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

/** Timings of one set-up repetition. */
struct SetupRep
{
    double totalUs = 0;
    double goldenUs = 0;
};

/** Build every program and interpret it for its golden result. */
std::vector<Golden>
runSetup(const std::vector<std::string> &programs, SpanLog &log,
         SetupRep &rep)
{
    std::vector<Golden> out;
    const double t0 = nowUs();
    Scope root(log, "setup");
    for (const auto &name : programs) {
        Program prog;
        {
            Scope s(log, "workloads.build");
            prog = workloads::buildWorkload(name);
        }
        const double g0 = nowUs();
        ExecResult r;
        {
            Scope s(log, "ir.golden");
            Interpreter interp(prog);
            r = interp.run();
        }
        rep.goldenUs += nowUs() - g0;
        out.push_back({r.checksum, r.returns, r.dynOps});
    }
    rep.totalUs = nowUs() - t0;
    return out;
}

/** Run one job: its compile and every one of its points. */
void
runJob(const Workload &w, int jobId, const Golden &expect, bool traced,
       JobOut &out)
{
    const JobSpec &spec = w.jobs[static_cast<std::size_t>(jobId)];
    const std::size_t nSizes = w.sizes.size();
    const std::size_t nPoints = spec.modes.size() * nSizes;
    const bool cli = w.cli;
    out = JobOut{};
    out.sigs.assign(nPoints, PointSig{});
    out.pointFailed.assign(nPoints, 1);
    out.log.on = traced;
    out.log.job = jobId;
    out.log.tid = threadIndex();

    obs::Registry reg;
    out.startUs = nowUs();
    {
        Scope job(out.log, "job");
        CompileResult cr;
        bool compiled = false;
        bool goldenAgrees = false;
        try {
            Program prog;
            {
                Scope s(out.log, "workloads.build");
                prog = workloads::buildWorkload(
                    w.programs[static_cast<std::size_t>(spec.program)]);
            }
            CompileOptions opts;
            opts.level = spec.level;
            opts.slotLowering = spec.slotLowering;
            opts.obsRegistry = cli || traced ? &reg : nullptr;
            {
                Scope s(out.log, "core.compile");
                compileProgram(prog, opts, cr);
            }
            compiled = true;
            out.codeOps = static_cast<std::uint64_t>(cr.scheduledOps);
            goldenAgrees = cr.goldenChecksum == expect.checksum;
        } catch (const std::exception &e) {
            out.error = e.what();
        }

        std::unique_ptr<DecodedImage> img;
        if (compiled && !cli) {
            try {
                Scope s(out.log, "sim.decode");
                img = std::make_unique<DecodedImage>(
                    buildDecodedImage(cr.code));
            } catch (const std::exception &e) {
                out.error = e.what();
                compiled = false;
            }
        }

        for (std::size_t m = 0; compiled && m < spec.modes.size();
             ++m) {
            for (std::size_t si = 0; si < nSizes; ++si) {
                const std::size_t idx = m * nSizes + si;
                const int size = w.sizes[si];
                try {
                    SimConfig sc;
                    sc.bufferOps = size;
                    sc.predMode = spec.modes[m];
                    std::unique_ptr<VliwSim> sim;
                    if (cli) {
                        Scope s(out.log, "sim.decode");
                        sim = std::make_unique<VliwSim>(cr.code, sc);
                    } else {
                        {
                            Scope s(out.log, "core.realloc");
                            reallocateBuffers(cr, size);
                        }
                        Scope s(out.log, "sim.decode");
                        rebindBufferAddresses(*img, cr.code);
                        sim = std::make_unique<VliwSim>(cr.code, sc,
                                                        img.get());
                    }
                    SimStats st;
                    {
                        Scope s(out.log, "sim.run");
                        st = sim->run();
                    }
                    FetchEnergy fe;
                    double unbufferedNj = 0;
                    {
                        Scope s(out.log, "power.energy");
                        fe = computeFetchEnergy(st, size);
                        unbufferedNj = unbufferedEnergyNj(st.opsFetched);
                    }
                    if (cli) {
                        Scope s(out.log, "obs.publish");
                        obs::publishCompileResult(reg, cr);
                        obs::publishSimStats(reg, st);
                        if (const TraceCacheStats *tc =
                                sim->traceCacheStats())
                            obs::publishTraceCacheStats(reg, *tc);
                        obs::publishCycleStack(reg, sim->cycleStack());
                        obs::publishFetchEnergy(reg, fe);
                        std::ostringstream os;
                        reg.toJson().write(os);
                    }

                    PointSig &sig = out.sigs[idx];
                    sig.cycles = st.cycles;
                    sig.bundles = st.bundles;
                    sig.opsFetched = st.opsFetched;
                    sig.opsFromBuffer = st.opsFromBuffer;
                    sig.opsNullified = st.opsNullified;
                    sig.branches = st.branches;
                    sig.branchesTaken = st.branchesTaken;
                    sig.checksum = st.checksum;
                    sig.energyNj = fe.totalNj;
                    sig.unbufferedNj = unbufferedNj;
                    if (const TraceCacheStats *tc =
                            sim->traceCacheStats())
                        accumulateTraceCacheStats(out.tc, *tc);
                    const obs::CycleRow row = sim->cycleStack().totals();
                    for (std::size_t k = 0; k < obs::kNumCycleClasses;
                         ++k)
                        out.cycles[k] += row[k];
                    for (const LoopStats &ls : st.loops)
                        out.loopEvictions += ls.evictions;
                    out.pointFailed[idx] =
                        !goldenAgrees ||
                        st.checksum != expect.checksum ||
                        st.returns != expect.returns;
                } catch (const std::exception &e) {
                    if (out.error.empty())
                        out.error = e.what();
                }
            }
        }
    }
    out.endUs = nowUs();

    if (traced) {
        // Outside the job span: reading the compile phase timers is
        // the benchmark's own work.
        const obs::Json dump = reg.toJson();
        if (const obs::Json *metrics = dump.find("metrics")) {
            const std::string pre = "compile.phase.";
            const std::string suf = ".ms";
            for (const auto &kv : metrics->members()) {
                const std::string &k = kv.first;
                if (k.size() > pre.size() + suf.size() &&
                    k.compare(0, pre.size(), pre) == 0 &&
                    k.compare(k.size() - suf.size(), suf.size(),
                              suf) == 0 &&
                    kv.second.isNumber())
                    out.phaseMs[k.substr(pre.size(),
                                         k.size() - pre.size() -
                                             suf.size())] +=
                        kv.second.asDouble();
            }
        }
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The run-level state every pass folds into. */
struct RunState
{
    std::vector<std::vector<PointSig>> ref; ///< first pass, per job
    std::vector<std::uint64_t> refCodeOps;
    std::vector<std::uint64_t> failedByJob;
    std::vector<std::uint64_t> attemptedByJob;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Per job, its fastest untraced run. Interference from other
     * tenants only ever slows a run down, so the fastest of many runs
     * is the steadiest estimate of the job's own cost.
     */
    std::vector<double> bestJobMs;
    std::size_t jobSamples = 0;       ///< untraced job runs
    std::vector<double> untracedWallUs;
    std::vector<double> busyFrac;     ///< untraced passes

    std::vector<double> tracedWallUs;
    std::map<std::string, std::vector<double>> layerUs; ///< per pass
    std::map<std::string, std::vector<double>> phaseMs; ///< per pass
    double jobSelfUs = 0;
    double jobSpanUs = 0;
    std::vector<SpanLog> keptLogs;    ///< first traced passes' spans

    // Deterministic counters, taken from the first pass.
    TraceCacheStats tc;
    obs::CycleRow cycles{};
    std::uint64_t loopEvictions = 0;
};

void
foldPass(const Workload &w, std::vector<JobOut> &jobs, double wallUs,
         bool traced, RunState &rs)
{
    const bool first = rs.ref.empty();
    if (first) {
        rs.ref.resize(jobs.size());
        rs.refCodeOps.resize(jobs.size());
        rs.failedByJob.assign(jobs.size(), 0);
        rs.attemptedByJob.assign(jobs.size(), 0);
    }
    double busyUs = 0;
    std::map<std::string, double> selfUs;
    std::map<std::string, double> phases;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        JobOut &o = jobs[j];
        if (first) {
            rs.ref[j] = o.sigs;
            rs.refCodeOps[j] = o.codeOps;
            accumulateTraceCacheStats(rs.tc, o.tc);
            for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
                rs.cycles[k] += o.cycles[k];
            rs.loopEvictions += o.loopEvictions;
        }
        for (std::size_t i = 0; i < o.sigs.size(); ++i) {
            // A point whose modelled result moved between passes is
            // nondeterministic and therefore wrong.
            const bool bad = o.pointFailed[i] ||
                             !(o.sigs[i] == rs.ref[j][i]) ||
                             o.codeOps != rs.refCodeOps[j];
            rs.failed += bad;
            rs.failedByJob[j] += bad;
        }
        rs.attempted += o.sigs.size();
        rs.attemptedByJob[j] += o.sigs.size();
        if (!o.error.empty() && rs.errors.size() < 8)
            rs.errors.push_back(w.programs[static_cast<std::size_t>(
                                    w.jobs[j].program)] +
                                ": " + o.error);
        const double jobUs = o.endUs - o.startUs;
        busyUs += jobUs;
        if (traced) {
            addSelfTimes(o.log, selfUs);
            for (const Span &s : o.log.spans)
                if (s.parent < 0)
                    rs.jobSpanUs += s.t1 - s.t0;
            for (const auto &kv : o.phaseMs)
                phases[kv.first] += kv.second;
            if (rs.tracedWallUs.size() < kExportedPasses)
                rs.keptLogs.push_back(std::move(o.log));
        } else {
            if (rs.bestJobMs.empty())
                rs.bestJobMs.assign(jobs.size(), HUGE_VAL);
            rs.bestJobMs[j] = std::min(rs.bestJobMs[j], jobUs / 1000.0);
            ++rs.jobSamples;
        }
    }
    if (traced) {
        rs.tracedWallUs.push_back(wallUs);
        rs.jobSelfUs += selfUs["job"];
        for (const auto &kv : selfUs)
            rs.layerUs[kv.first].push_back(kv.second);
        for (const auto &kv : phases)
            rs.phaseMs[kv.first].push_back(kv.second);
    } else {
        rs.untracedWallUs.push_back(wallUs);
        rs.busyFrac.push_back(busyUs / (w.threads * wallUs));
    }
}

/** One pass over every job of the workload. */
double
runPass(const Workload &w, const std::vector<Golden> &expected,
        Rng &rng, ThreadPool *pool, bool traced,
        std::vector<JobOut> &jobs)
{
    std::vector<int> order(w.jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    if (w.permute)
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
    jobs.assign(w.jobs.size(), JobOut{});
    const double t0 = nowUs();
    for (int j : order) {
        auto body = [&w, &expected, &jobs, j, traced] {
            runJob(w, j, expected[static_cast<std::size_t>(j)], traced,
                   jobs[static_cast<std::size_t>(j)]);
        };
        if (pool)
            pool->submit(body);
        else
            body();
    }
    if (pool)
        pool->wait();
    return nowUs() - t0;
}

/**
 * Compile every distinct job once with stage verification off and
 * once with it on, back to back, for the verification share of
 * compile time.
 */
void
verifyProbe(const Workload &w, double &noVerifyMs, double &verifyMs)
{
    noVerifyMs = verifyMs = 0;
    for (const JobSpec &spec : w.jobs) {
        const Program prog = workloads::buildWorkload(
            w.programs[static_cast<std::size_t>(spec.program)]);
        for (bool verify : {false, true}) {
            CompileOptions opts;
            opts.level = spec.level;
            opts.slotLowering = spec.slotLowering;
            opts.verifyStages = verify;
            CompileResult cr;
            const double t0 = nowUs();
            try {
                compileProgram(prog, opts, cr);
            } catch (const std::exception &) {
                // The timed passes already count compile failures.
            }
            (verify ? verifyMs : noVerifyMs) += (nowUs() - t0) / 1000.0;
        }
    }
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = a.seconds > 0;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--out-dir") {
            a.outDir = v;
        } else if (k == "--corrupt-job") {
            a.corruptJob = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return haveWorkload && haveSeconds;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        char num[64];
        if (std::isfinite(m.value))
            std::snprintf(num, sizeof(num), "%.17g", m.value);
        else
            std::snprintf(num, sizeof(num), "null");
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload cli_run|fig7_sweep|"
                     "buffer_curve --seed N --seconds S --trace 0|1 "
                     "[--out-dir DIR] [--corrupt-job K]\n",
                     argv[0]);
        return 2;
    }
    const Workload w = makeWorkload(args.workload, args.seed);

    // Set-up, repeated so its median is steady.
    std::vector<Golden> goldens;
    std::vector<double> setupUs, goldenUs;
    SpanLog setupLog;
    for (int r = 0; r < kSetupReps; ++r) {
        SetupRep rep;
        SpanLog log;
        log.on = args.trace && r == 0;
        std::vector<Golden> g = runSetup(w.programs, log, rep);
        if (r == 0) {
            goldens = std::move(g);
            setupLog = std::move(log);
        } else if (g != goldens) {
            std::fprintf(stderr, "golden interpretation is not "
                                 "deterministic\n");
            return 1;
        }
        setupUs.push_back(rep.totalUs);
        goldenUs.push_back(rep.goldenUs);
    }
    std::vector<Golden> expected;
    for (const JobSpec &spec : w.jobs)
        expected.push_back(
            goldens[static_cast<std::size_t>(spec.program)]);
    if (args.corruptJob >= 0) {
        if (args.corruptJob >= static_cast<int>(expected.size())) {
            std::fprintf(stderr, "--corrupt-job %d: only %zu jobs\n",
                         args.corruptJob, expected.size());
            return 2;
        }
        expected[static_cast<std::size_t>(args.corruptJob)].checksum ^=
            0x5a5a5a5aull;
    }
    std::unique_ptr<ThreadPool> pool;
    if (w.threads > 1)
        pool = std::make_unique<ThreadPool>(w.threads);

    // Timed passes. The traced run alternates untraced and traced
    // passes so the tracing overhead is measured in the same process.
    Rng rng(args.seed ^ 0x243f6a8885a308d3ull);
    RunState rs;
    std::vector<JobOut> jobs;
    const double start = nowUs();
    for (int pass = 0;; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        const double wallUs =
            runPass(w, expected, rng, pool.get(), traced, jobs);
        foldPass(w, jobs, wallUs, traced, rs);
        const bool haveBoth =
            !args.trace || (!rs.tracedWallUs.empty() &&
                            !rs.untracedWallUs.empty());
        if (haveBoth && nowUs() - start >= args.seconds * 1e6)
            break;
    }
    pool.reset();

    // Modelled results of one pass (identical in every pass, or the
    // differing points were failed above).
    std::uint64_t simCycles = 0, opsFetched = 0, opsFromBuffer = 0,
                  codeOps = 0;
    double energyNj = 0, unbufferedNj = 0;
    std::uint64_t redundant = 0, pointsPerPass = 0;
    for (std::size_t j = 0; j < rs.ref.size(); ++j) {
        codeOps += rs.refCodeOps[j];
        const std::size_t nSizes = w.sizes.size();
        for (std::size_t i = 0; i < rs.ref[j].size(); ++i) {
            const PointSig &p = rs.ref[j][i];
            simCycles += p.cycles;
            opsFetched += p.opsFetched;
            opsFromBuffer += p.opsFromBuffer;
            energyNj += p.energyNj;
            unbufferedNj += p.unbufferedNj;
            ++pointsPerPass;
            // Redundant: same execution as an earlier size of the same
            // compile and pred mode.
            const std::size_t first = i - i % nSizes;
            for (std::size_t e = first; e < i; ++e) {
                if (p.sameExecution(rs.ref[j][e])) {
                    ++redundant;
                    break;
                }
            }
        }
    }

    const bool correct = rs.failed == 0;
    std::printf("workload %s: %zu jobs, %llu points per pass, %d "
                "thread(s), seed %llu\n",
                args.workload.c_str(), w.jobs.size(),
                static_cast<unsigned long long>(pointsPerPass),
                w.threads, static_cast<unsigned long long>(args.seed));
    std::printf("passes: %zu untraced, %zu traced; job samples: %zu "
                "(latency percentiles over the %zu jobs' fastest runs)\n",
                rs.untracedWallUs.size(), rs.tracedWallUs.size(),
                rs.jobSamples, rs.bestJobMs.size());
    if (!rs.untracedWallUs.empty())
        std::printf("untraced pass wall ms: min %.1f, median %.1f, "
                    "max %.1f\n",
                    *std::min_element(rs.untracedWallUs.begin(),
                                      rs.untracedWallUs.end()) /
                        1000.0,
                    median(rs.untracedWallUs) / 1000.0,
                    *std::max_element(rs.untracedWallUs.begin(),
                                      rs.untracedWallUs.end()) /
                        1000.0);
    std::printf("error_rate: %.6g (%llu of %llu points failed)\n",
                ratio(static_cast<double>(rs.failed),
                      static_cast<double>(rs.attempted)),
                static_cast<unsigned long long>(rs.failed),
                static_cast<unsigned long long>(rs.attempted));
    for (std::size_t j = 0; j < rs.failedByJob.size(); ++j)
        if (rs.failedByJob[j])
            std::printf("job %zu (%s): error_rate %.6g (%llu of %llu "
                        "points failed)\n",
                        j,
                        w.programs[static_cast<std::size_t>(
                                       w.jobs[j].program)]
                            .c_str(),
                        ratio(static_cast<double>(rs.failedByJob[j]),
                              static_cast<double>(rs.attemptedByJob[j])),
                        static_cast<unsigned long long>(rs.failedByJob[j]),
                        static_cast<unsigned long long>(
                            rs.attemptedByJob[j]));
    for (const auto &e : rs.errors)
        std::printf("error: %s\n", e.c_str());

    std::vector<Metric> metrics;
    if (!args.trace) {
        // A serial pass is its jobs back to back, so the least
        // disturbed pass is every job's fastest run. On the pool the
        // pass time also depends on the order the seed drew, so take
        // the median pass there.
        double passUs = median(rs.untracedWallUs);
        if (w.threads == 1) {
            passUs = 0;
            for (double ms : rs.bestJobMs)
                passUs += ms * 1000.0;
        }
        metrics = {
            {"setup_s", median(setupUs) / 1e6, "s"},
            {"points_per_s",
             ratio(static_cast<double>(pointsPerPass), passUs / 1e6),
             "1/s"},
            {"job_p50_ms", median(rs.bestJobMs), "ms"},
            {"job_p90_ms", percentile(rs.bestJobMs, 0.9), "ms"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles", static_cast<double>(simCycles), "cycles"},
            {"buffer_issue_frac",
             ratio(static_cast<double>(opsFromBuffer),
                   static_cast<double>(opsFetched)),
             "ratio"},
            {"fetch_energy_ratio", ratio(energyNj, unbufferedNj),
             "ratio"},
            {"code_ops", static_cast<double>(codeOps), "ops"},
        };
    } else {
        double noVerifyMs = 0, verifyMs = 0;
        verifyProbe(w, noVerifyMs, verifyMs);
        auto layerMs = [&rs](const char *name) {
            auto it = rs.layerUs.find(name);
            return it == rs.layerUs.end() ? 0.0
                                          : median(it->second) / 1000.0;
        };
        const double simRunMs = layerMs("sim.run");
        std::uint64_t dynOps = 0;
        for (const Golden &g : goldens)
            dynOps += g.dynOps;
        const TraceCacheStats &tc = rs.tc;
        metrics = {
            {"workloads.build_ms", layerMs("workloads.build"), "ms"},
            {"ir.golden_ms", median(goldenUs) / 1000.0, "ms"},
            {"ir.interp_mops_per_s",
             ratio(static_cast<double>(dynOps), median(goldenUs)),
             "Mops/s"},
            {"core.compile_ms", layerMs("core.compile"), "ms"},
            {"core.compile_noverify_ms", noVerifyMs, "ms"},
            {"core.verify_share", 1.0 - ratio(noVerifyMs, verifyMs),
             "ratio"},
        };
        for (const auto &kv : rs.phaseMs)
            metrics.push_back(
                {"core.phase." + kv.first + "_ms", median(kv.second),
                 "ms"});
        const std::vector<Metric> rest = {
            {"core.realloc_ms", layerMs("core.realloc"), "ms"},
            {"sim.decode_ms", layerMs("sim.decode"), "ms"},
            {"sim.run_ms", simRunMs, "ms"},
            {"sim.mops_per_s",
             ratio(static_cast<double>(opsFetched), simRunMs * 1000.0),
             "Mops/s"},
            {"sim.trace.replay_coverage",
             ratio(static_cast<double>(tc.replayedOps),
                   static_cast<double>(opsFromBuffer)),
             "ratio"},
            {"sim.trace.bailout_rate",
             ratio(static_cast<double>(tc.bailouts),
                   static_cast<double>(tc.bailouts + tc.replays)),
             "ratio"},
            {"sim.trace.builds", static_cast<double>(tc.builds),
             "count"},
            {"sim.trace.invalidations",
             static_cast<double>(tc.invalidations), "count"},
            {"sim.trace.pred_replays",
             static_cast<double>(tc.predReplay.replays), "count"},
            {"sim.loop_evictions",
             static_cast<double>(rs.loopEvictions), "count"},
            {"sim.redundant_exec_share",
             ratio(static_cast<double>(redundant),
                   static_cast<double>(pointsPerPass)),
             "ratio"},
            {"power.energy_ms", layerMs("power.energy"), "ms"},
            {"support.pool_busy_frac", median(rs.busyFrac), "ratio"},
            {"obs.publish_ms", layerMs("obs.publish"), "ms"},
        };
        metrics.insert(metrics.end(), rest.begin(), rest.end());
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            metrics.push_back(
                {std::string("simcyc.") +
                     obs::cycleClassName(static_cast<obs::CycleClass>(k)),
                 static_cast<double>(rs.cycles[k]), "cycles"});
        metrics.push_back({"untracked_frac",
                           ratio(rs.jobSelfUs, rs.jobSpanUs), "ratio"});
        metrics.push_back(
            {"trace_overhead_frac",
             ratio(median(rs.tracedWallUs), median(rs.untracedWallUs)) -
                 1.0,
             "ratio"});

        // Exported artifacts: the span trace and a bench document
        // whose cycle_stack block `lbp_stats explain` can diff.
        std::error_code ec;
        std::filesystem::create_directories(args.outDir, ec);
        std::vector<const SpanLog *> logs{&setupLog};
        for (const SpanLog &l : rs.keptLogs)
            logs.push_back(&l);
        const std::string tracePath =
            args.outDir + "/" + args.workload + ".trace.json";
        if (!writeChromeTrace(tracePath, logs)) {
            std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
            return 1;
        }
        obs::Json doc = bench::benchJsonDoc("perfbench");
        obs::Json config = obs::Json::object();
        config.set("workload", obs::Json::str(args.workload));
        config.set("seed", obs::Json::uinteger(args.seed));
        doc.set("config", std::move(config));
        doc.set("cycle_stack", bench::cycleStackJson(rs.cycles));
        const std::string docPath =
            args.outDir + "/" + args.workload + ".bench.json";
        bench::writeBenchJson(docPath, doc);
        std::printf("trace: %s (%zu job logs)\ncycle stack: %s\n",
                    tracePath.c_str(), rs.keptLogs.size(),
                    docPath.c_str());
    }
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::fflush(stdout);
    printResult(correct, rs.attempted, rs.failed, metrics);
    return 0;
}
