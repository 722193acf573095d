/**
 * @file
 * Observability layer tests: the JSON model (exact integer
 * round-trips), the metrics registry (typed find-or-create,
 * serialization, diffing), the trace ring (overflow, sampling, exact
 * aggregates), and whole-trace behavior on a real compiled loop —
 * including the cross-engine guarantee that REFERENCE and DECODED
 * emit identical event streams, and the buffer-hit-ops integral the
 * lbp_stats tool enforces.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "obs/json.hh"
#include "obs/publish.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/input_data.hh"

namespace lbp
{
namespace
{

using obs::Json;
using obs::TraceKind;

// ---------------------------------------------------------------- Json

TEST(ObsJson, ScalarRoundTrip)
{
    Json doc = Json::object();
    doc.set("i", Json::integer(-42));
    doc.set("u", Json::uinteger(0xdeadbeefcafef00dull));
    doc.set("d", Json::number(0.125));
    doc.set("s", Json::str("hi \"there\"\n"));
    doc.set("b", Json::boolean(true));
    doc.set("n", Json::null());

    std::ostringstream os;
    doc.write(os);
    std::string err;
    const Json back = Json::parse(os.str(), err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(doc == back);

    // The uint64 must survive exactly — not via a double.
    const Json *u = back.find("u");
    ASSERT_NE(u, nullptr);
    EXPECT_EQ(u->asUint(), 0xdeadbeefcafef00dull);
    EXPECT_EQ(back.find("i")->asInt(), -42);
    EXPECT_EQ(back.find("s")->asString(), "hi \"there\"\n");
}

TEST(ObsJson, NestedStructures)
{
    std::string err;
    const Json doc = Json::parse(
        R"({"a": [1, 2.5, "x", [true, null]], "o": {"k": 18446744073709551615}})",
        err);
    ASSERT_TRUE(err.empty()) << err;
    const Json *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->items().size(), 4u);
    EXPECT_EQ(doc.find("o")->find("k")->asUint(),
              18446744073709551615ull);
}

TEST(ObsJson, ParseErrors)
{
    std::string err;
    Json::parse("{\"a\": }", err);
    EXPECT_FALSE(err.empty());
    err.clear();
    Json::parse("[1, 2", err);
    EXPECT_FALSE(err.empty());
    err.clear();
    Json::parse("{} trailing", err);
    EXPECT_FALSE(err.empty());
}

// ------------------------------------------------------------ Registry

TEST(ObsRegistry, TypedAccessAndDump)
{
    obs::Registry r;
    r.counter("a.cycles").inc(10);
    r.counter("a.cycles").inc(5);
    r.intGauge("a.delta").set(-3);
    r.gauge("a.ms").set(1.5);
    r.histogram("a.hist").add(2, 1.0);
    r.histogram("a.hist").add(2, 2.0);
    r.histogram("a.hist").add(7, 1.0);
    r.info("workload", "toy");

    EXPECT_EQ(r.counter("a.cycles").value(), 15u);
    EXPECT_EQ(r.intGauge("a.delta").value(), -3);
    EXPECT_DOUBLE_EQ(r.histogram("a.hist").total(), 4.0);
    EXPECT_EQ(r.histogram("a.hist").maxValue(), 7);

    const Json doc = r.toJson();
    EXPECT_EQ(doc.find("schema_version")->asInt(),
              obs::kRegistrySchemaVersion);
    EXPECT_EQ(doc.find("meta")->find("workload")->asString(), "toy");
    EXPECT_EQ(doc.find("metrics")->find("a.cycles")->asUint(), 15u);
    ASSERT_NE(doc.find("histograms")->find("a.hist"), nullptr);
}

TEST(ObsRegistry, JsonRoundTripDiffsEmpty)
{
    obs::Registry r;
    r.counter("sim.cycles").set(123456789012345ull);
    r.counter("sim.checksum").set(0xfeedfacefeedfaceull);
    r.gauge("sim.frac").set(0.984375); // exact in binary
    r.histogram("sim.h").add(-1, 2.0);

    std::ostringstream os;
    r.toJson().write(os);
    std::string err;
    const Json back = Json::parse(os.str(), err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(obs::diffRegistries(r.toJson(), back).empty());
}

TEST(ObsRegistry, DiffFindsChangedAndMissingKeys)
{
    obs::Registry a, b;
    a.counter("x.same").set(1);
    b.counter("x.same").set(1);
    a.counter("x.changed").set(10);
    b.counter("x.changed").set(11);
    a.counter("x.onlyA").set(5);
    b.counter("x.onlyB").set(6);

    const auto diffs = obs::diffRegistries(a.toJson(), b.toJson());
    ASSERT_EQ(diffs.size(), 3u);
    // Name order.
    EXPECT_EQ(diffs[0].key, "x.changed");
    EXPECT_EQ(diffs[1].key, "x.onlyA");
    EXPECT_EQ(diffs[2].key, "x.onlyB");
    EXPECT_EQ(diffs[1].b, "<absent>");
    EXPECT_EQ(diffs[2].a, "<absent>");
}

TEST(ObsRegistry, CsvContainsEveryMetric)
{
    obs::Registry r;
    r.counter("c").set(7);
    r.gauge("g").set(2.5);
    r.histogram("h").add(3, 1.0);
    std::ostringstream os;
    r.writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("counter,c,7"), std::string::npos);
    EXPECT_NE(csv.find("gauge,g,"), std::string::npos);
    EXPECT_NE(csv.find("histbin,h.3,"), std::string::npos);
    EXPECT_NE(csv.find("histp50,h,3"), std::string::npos);
    EXPECT_NE(csv.find("histp95,h,3"), std::string::npos);
    EXPECT_NE(csv.find("histp99,h,3"), std::string::npos);
}

TEST(ObsRegistry, EmptyHistogramRendersNullQuantiles)
{
    // The NaN-poison policy extends to never-observed histograms:
    // their quantiles are not 0 (a real observable value), they are
    // unknown — JSON null, literal "null" in CSV and table — so a
    // diff or gate against them fails loudly instead of silently
    // comparing fabricated zeros.
    obs::Registry r;
    r.histogram("never"); // registered, zero observations
    r.histogram("seen").add(3);

    const Json doc = r.toJson();
    const Json *h = doc.find("histograms")->find("never");
    ASSERT_NE(h, nullptr);
    ASSERT_NE(h->find("p50"), nullptr);
    EXPECT_EQ(h->find("p50")->kind(), Json::Kind::Null);
    EXPECT_EQ(h->find("p95")->kind(), Json::Kind::Null);
    EXPECT_EQ(h->find("p99")->kind(), Json::Kind::Null);
    // A populated histogram still renders numbers.
    EXPECT_EQ(doc.find("histograms")
                  ->find("seen")
                  ->find("p50")
                  ->asInt(),
              3);

    std::ostringstream csvOs;
    r.writeCsv(csvOs);
    const std::string csv = csvOs.str();
    EXPECT_NE(csv.find("histp50,never,null"), std::string::npos);
    EXPECT_NE(csv.find("histp95,never,null"), std::string::npos);
    EXPECT_NE(csv.find("histp99,never,null"), std::string::npos);
    EXPECT_NE(csv.find("histp50,seen,3"), std::string::npos);

    std::ostringstream tblOs;
    r.writeTable(tblOs);
    EXPECT_NE(tblOs.str().find("p50=null"), std::string::npos);
}

TEST(ObsRegistry, PercentileNearestRankExactSmallSamples)
{
    // Nearest-rank on explicit small samples, checked by hand.
    obs::Histogram h;
    EXPECT_EQ(h.percentile(0.50), 0); // empty -> 0

    h.add(10);
    EXPECT_EQ(h.percentile(0.0), 10);
    EXPECT_EQ(h.percentile(0.50), 10);
    EXPECT_EQ(h.percentile(1.0), 10);

    h.add(20);
    // {10, 20}: rank ceil(0.5*2)=1 -> 10; anything above -> 20.
    EXPECT_EQ(h.percentile(0.50), 10);
    EXPECT_EQ(h.percentile(0.51), 20);
    EXPECT_EQ(h.percentile(0.95), 20);

    obs::Histogram k;
    for (int v = 1; v <= 100; ++v)
        k.add(v);
    // Uniform 1..100: nearest-rank p-th percentile is exactly p.
    EXPECT_EQ(k.percentile(0.50), 50);
    EXPECT_EQ(k.percentile(0.95), 95);
    EXPECT_EQ(k.percentile(0.99), 99);
    EXPECT_EQ(k.percentile(1.0), 100);

    // Out-of-range quantiles clamp.
    EXPECT_EQ(k.percentile(-0.5), 1);
    EXPECT_EQ(k.percentile(2.0), 100);
}

TEST(ObsRegistry, PercentileRespectsWeights)
{
    obs::Histogram h;
    h.add(1, 9.0);
    h.add(100, 1.0);
    // 90% of the mass sits at 1.
    EXPECT_EQ(h.percentile(0.50), 1);
    EXPECT_EQ(h.percentile(0.90), 1);
    EXPECT_EQ(h.percentile(0.95), 100);
    EXPECT_EQ(h.percentile(0.99), 100);
}

TEST(ObsRegistry, PercentilesLandInDumpAndDiff)
{
    obs::Registry a;
    for (int v = 1; v <= 100; ++v)
        a.histogram("lat").add(v);

    const Json doc = a.toJson();
    const Json *h = doc.find("histograms")->find("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("p50")->asInt(), 50);
    EXPECT_EQ(h->find("p95")->asInt(), 95);
    EXPECT_EQ(h->find("p99")->asInt(), 99);

    std::ostringstream os;
    a.writeTable(os);
    EXPECT_NE(os.str().find("p95="), std::string::npos);

    // A shifted tail moves p99 (and the changed bins), and the
    // registry diff reports it without any special-casing.
    obs::Registry b;
    for (int v = 1; v <= 99; ++v)
        b.histogram("lat").add(v);
    b.histogram("lat").add(1000);
    const auto diffs = obs::diffRegistries(a.toJson(), b.toJson());
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].key, "lat");
    // The rendered sides carry the quantiles, so the shift is visible
    // right in the diff output.
    EXPECT_NE(diffs[0].a.find("\"p99\""), std::string::npos);
    EXPECT_NE(diffs[0].b.find("1000"), std::string::npos);
}

// ----------------------------------------------------------- TraceSink

TEST(ObsTrace, OverflowKeepsNewestAndCountsDropped)
{
    obs::TraceSink sink(4);
    for (std::uint64_t c = 0; c < 10; ++c)
        sink.emit(TraceKind::BufHit, c, 0, 3, 0);

    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    const auto ev = sink.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    // Oldest first; the newest four survive.
    EXPECT_EQ(ev.front().cycle, 6u);
    EXPECT_EQ(ev.back().cycle, 9u);

    // Aggregates see everything regardless of the ring.
    EXPECT_EQ(sink.countOf(TraceKind::BufHit), 10u);
    EXPECT_EQ(sink.sumA(TraceKind::BufHit), 30);
}

TEST(ObsTrace, SamplingThinsOnlyHighFrequencyKinds)
{
    obs::TraceSink sink(1u << 12, 4);
    for (std::uint64_t c = 0; c < 100; ++c)
        sink.emit(TraceKind::Fetch, c, -1, 2, 0);
    for (std::uint64_t c = 0; c < 10; ++c)
        sink.emit(TraceKind::BufHit, 100 + c, 0, 5, 0);
    sink.emit(TraceKind::LoopEnter, 200, 0, 1, 0);
    sink.emit(TraceKind::LoopExit, 300, 0, 9, 1);

    // Structural kinds are never sampled out.
    std::size_t bufHits = 0, loops = 0, fetches = 0;
    for (const auto &e : sink.snapshot()) {
        if (e.kind == TraceKind::BufHit)
            ++bufHits;
        else if (e.kind == TraceKind::LoopEnter ||
                 e.kind == TraceKind::LoopExit)
            ++loops;
        else if (e.kind == TraceKind::Fetch)
            ++fetches;
    }
    EXPECT_EQ(bufHits, 10u);
    EXPECT_EQ(loops, 2u);
    EXPECT_EQ(fetches, 25u); // one in four kept
    EXPECT_EQ(sink.sampledOut(), 75u);

    // Aggregates stay exact under sampling too.
    EXPECT_EQ(sink.countOf(TraceKind::Fetch), 100u);
    EXPECT_EQ(sink.sumA(TraceKind::Fetch), 200);
    EXPECT_EQ(sink.sumA(TraceKind::BufHit), 50);
}

TEST(ObsTrace, ClearResetsEverything)
{
    obs::TraceSink sink(8);
    sink.emit(TraceKind::Fetch, 1, -1, 4, 0);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.countOf(TraceKind::Fetch), 0u);
    EXPECT_EQ(sink.sumA(TraceKind::Fetch), 0);

    // A cleared ring refills and wraps exactly like a fresh one.
    for (std::uint64_t c = 0; c < 11; ++c)
        sink.emit(TraceKind::BufHit, c, 0, 1, 0);
    const auto ev = sink.snapshot();
    ASSERT_EQ(ev.size(), 8u);
    for (std::size_t i = 0; i < ev.size(); ++i)
        EXPECT_EQ(ev[i].cycle, 3 + i);
    EXPECT_EQ(sink.dropped(), 3u);
}

// ----------------------------------------- whole-trace on real loops

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** Straight counted-loop program (same shape as test_sim.cc). */
Program
loopProgram(int trip, int pad)
{
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    b.forLoop(0, trip, 1, [&](RegId i) {
        b.addTo(acc, R(acc), R(i));
        for (int p = 0; p < pad; ++p)
            b.binTo(Opcode::XOR, acc, R(acc), I(p * 3 + 1));
    });
    b.storeW(R(dp), I(0), R(acc));
    b.ret({R(acc)});
    return prog;
}

struct TracedRun
{
    SimStats stats;
    std::vector<obs::TraceEvent> events;
    std::uint64_t dropped = 0;
    std::int64_t bufHitOps = 0;
};

TracedRun
traceRun(CompileResult &cr, SimEngine engine, int bufferOps = 64)
{
    obs::TraceSink sink(1u << 16);
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.engine = engine;
    sc.trace = &sink;
    VliwSim sim(cr.code, sc);
    TracedRun out;
    out.stats = sim.run();
    out.events = sink.snapshot();
    out.dropped = sink.dropped();
    out.bufHitOps = sink.sumA(TraceKind::BufHit);
    return out;
}

/**
 * Golden structural test: a single buffered counted loop with a fixed
 * buffer size records on its first activation and replays from the
 * buffer after, so the loop-event skeleton of the trace is fully
 * determined.
 */
TEST(ObsTrace, GoldenLoopEventSequence)
{
    Program prog = loopProgram(40, 4);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 64;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    const TracedRun run = traceRun(cr, SimEngine::DECODED);
    EXPECT_EQ(run.stats.checksum, cr.goldenChecksum);
    EXPECT_EQ(run.dropped, 0u);

    // Extract the loop-structural skeleton.
    std::vector<TraceKind> skeleton;
    for (const auto &e : run.events) {
        if (e.kind == TraceKind::LoopEnter ||
            e.kind == TraceKind::LoopRecord ||
            e.kind == TraceKind::LoopExit)
            skeleton.push_back(e.kind);
    }
    const std::vector<TraceKind> expect{
        TraceKind::LoopEnter, TraceKind::LoopRecord,
        TraceKind::LoopExit};
    EXPECT_EQ(skeleton, expect);

    // The exit event carries the trip count.
    for (const auto &e : run.events) {
        if (e.kind == TraceKind::LoopExit) {
            EXPECT_EQ(e.a, 40);
        }
    }

    // Buffer-hit ops integral — the lbp_stats acceptance invariant.
    ASSERT_GE(run.bufHitOps, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(run.bufHitOps),
              run.stats.opsFromBuffer);

    // The residency timeline reconstructs the single activation span
    // (recorded on entry, replaying from the buffer at retirement).
    const auto spans = obs::residencyTimeline(
        [&] {
            obs::TraceSink s(1u << 16);
            SimConfig sc;
            sc.bufferOps = 64;
            sc.trace = &s;
            VliwSim(cr.code, sc).run();
            return s;
        }());
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].iterations, 40u);
    EXPECT_TRUE(spans[0].recorded);
    EXPECT_TRUE(spans[0].fromBuffer);
    EXPECT_GT(spans[0].exitCycle, spans[0].enterCycle);
}

/**
 * Event tracing is a reference-engine feature: a DECODED config with
 * a sink must run the reference engine (no trace cache, the
 * reference event stream), yet still report what an untraced
 * decoded run with the trace cache on reports — the same SimStats
 * and, once replay is folded back into buffer issue, the same cycle
 * stack.
 */
TEST(ObsTrace, TracedDecodedConfigRunsReferenceEngine)
{
    Program prog = loopProgram(25, 7);
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 128;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    const TracedRun ref = traceRun(cr, SimEngine::REFERENCE, 128);

    obs::TraceSink sink(1u << 16);
    SimConfig sc;
    sc.bufferOps = 128;
    sc.engine = SimEngine::DECODED;
    sc.trace = &sink;
    VliwSim traced(cr.code, sc);
    const SimStats tracedStats = traced.run();
    EXPECT_EQ(traced.traceCacheStats(), nullptr)
        << "a traced run must not use the decoded trace cache";
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_TRUE(sink.snapshot() == ref.events)
        << "traced DECODED config diverges from the reference stream";

    SimConfig plainCfg;
    plainCfg.bufferOps = 128;
    plainCfg.engine = SimEngine::DECODED;
    plainCfg.traceCache = TraceCacheMode::On;
    VliwSim plain(cr.code, plainCfg);
    const SimStats plainStats = plain.run();
    ASSERT_NE(plain.traceCacheStats(), nullptr);
    EXPECT_GT(plain.traceCacheStats()->replays, 0u)
        << "the untraced run should exercise trace replay";

    EXPECT_TRUE(obs::diffSimStats(plainStats, tracedStats, "plain",
                                  "traced")
                    .empty());
    ASSERT_EQ(plain.cycleStack().numRows(),
              traced.cycleStack().numRows());
    for (std::size_t i = 0; i < plain.cycleStack().numRows(); ++i) {
        const int row = static_cast<int>(i) - 1;
        EXPECT_EQ(obs::CycleStack::collapseReplay(
                      plain.cycleStack().row(row)),
                  obs::CycleStack::collapseReplay(
                      traced.cycleStack().row(row)))
            << "collapsed cycle stacks diverge at row " << row;
    }
}

/** Resident set size of this process in KiB (Linux). */
long
residentKb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

TEST(ObsTrace, LargeCapacityRingGrowsOnDemand)
{
    // A 10M-event ring is 320 MB of slots. A short traced run must
    // cost what it records, not the capacity (the current RSS is
    // measured, so an earlier peak in the same process cannot hide
    // an up-front allocation).
    Program prog = loopProgram(30, 3);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    const long before = residentKb();
    ASSERT_GT(before, 0) << "cannot read /proc/self/statm";
    obs::TraceSink sink(10'000'000);
    SimConfig sc;
    sc.bufferOps = 64;
    sc.trace = &sink;
    VliwSim(cr.code, sc).run();
    const long grownKb = residentKb() - before;

    EXPECT_GT(sink.size(), 0u);
    EXPECT_LT(sink.size(), 10'000u);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_LT(grownKb, 32 * 1024)
        << "a short run in a 10M-event ring grew RSS by " << grownKb
        << " KiB";
}

TEST(ObsTrace, NullSinkDoesNotPerturbStats)
{
    Program prog = loopProgram(30, 3);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 64;
    const SimStats plain = VliwSim(cr.code, sc).run();
    obs::TraceSink sink(1u << 14);
    sc.trace = &sink;
    const SimStats traced = VliwSim(cr.code, sc).run();
    EXPECT_TRUE(obs::diffSimStats(plain, traced, "plain", "traced")
                    .empty());
}

TEST(ObsTrace, ChromeExportIsValidJson)
{
    Program prog = loopProgram(20, 2);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    obs::TraceSink sink(1u << 14);
    SimConfig sc;
    sc.bufferOps = 64;
    sc.trace = &sink;
    VliwSim sim(cr.code, sc);
    const SimStats stats = sim.run();

    std::vector<std::string> names;
    for (const auto &ls : stats.loops)
        names.push_back(ls.name);
    std::ostringstream os;
    obs::writeChromeTrace(os, sink, names);

    std::string err;
    const Json doc = Json::parse(os.str(), err);
    ASSERT_TRUE(err.empty()) << err;
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->items().size(), 0u);

    // Sum the ops payloads of the buffer-hit instants: must equal the
    // run's opsFromBuffer (the ISSUE acceptance invariant, checked on
    // the serialized form).
    std::uint64_t opsInJson = 0;
    for (const auto &e : events->items()) {
        const Json *name = e.find("name");
        if (name && name->asString() == "buffer_hit")
            opsInJson += e.find("args")->find("ops")->asUint();
    }
    EXPECT_EQ(opsInJson, stats.opsFromBuffer);

    EXPECT_EQ(doc.find("otherData")->find("schema_version")->asInt(),
              obs::kTraceSchemaVersion);
}

/**
 * The streaming Chrome writer against a document the former
 * whole-document (one Json tree) writer produced for the same run:
 * an if-converted counted loop at the Aggressive level, so every
 * event kind but call/return penalties appears (fetch, buffer hit,
 * record, branch, penalty, nullify, residency spans, track names).
 */
TEST(ObsTrace, ChromeExportMatchesGolden)
{
    // loopProgram(20, 2) plus a guarded add in the body: the program
    // the golden was captured from.
    Program prog;
    {
        const auto data = prog.allocData(64);
        prog.checksumBase = data;
        prog.checksumSize = 8;
        const FuncId f = prog.newFunction("main");
        prog.entryFunc = f;
        IRBuilder b(prog, f);
        const RegId dp = b.iconst(data);
        const RegId acc = b.iconst(0);
        b.forLoop(0, 20, 1, [&](RegId i) {
            b.addTo(acc, R(acc), R(i));
            for (int p = 0; p < 2; ++p)
                b.binTo(Opcode::XOR, acc, R(acc), I(p * 3 + 1));
            const RegId odd = b.and_(R(i), I(1));
            workloads::ifThen(b, CmpCond::NE, R(odd), I(0),
                              [&] { b.addTo(acc, R(acc), I(7)); });
        });
        b.storeW(R(dp), I(0), R(acc));
        b.ret({R(acc)});
    }
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    obs::TraceSink sink(1u << 14);
    SimConfig sc;
    sc.bufferOps = 64;
    sc.trace = &sink;
    VliwSim sim(cr.code, sc);
    const SimStats stats = sim.run();
    std::vector<std::string> names;
    for (const auto &ls : stats.loops)
        names.push_back(ls.name);
    std::ostringstream os;
    obs::writeChromeTrace(os, sink, names);

    std::ifstream in(std::string(LBP_GOLDEN_DIR) +
                     "/chrome_trace_predicated_loop.json");
    ASSERT_TRUE(in.good()) << "missing golden";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(os.str(), golden.str());
}

// -------------------------------------------------------- phase timers

TEST(ObsPhases, CompilePublishesPhaseTimings)
{
    Program prog = loopProgram(10, 2);
    obs::Registry reg;
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.obsRegistry = &reg;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    const Json doc = reg.toJson();
    const Json *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    // The pipeline must have published a total and the bracketing
    // phases, with op counts moving through the op-delta gauges.
    EXPECT_NE(metrics->find("compile.total.ms"), nullptr);
    EXPECT_NE(metrics->find("compile.phase.01_profile.ms"), nullptr);
    EXPECT_NE(metrics->find("compile.phase.13_schedule.ms"), nullptr);
    EXPECT_NE(metrics->find("compile.phase.15_buffer_alloc.ms"),
              nullptr);
    const Json *opsAfter =
        metrics->find("compile.phase.03_classic_opts.ops_after");
    ASSERT_NE(opsAfter, nullptr);
    EXPECT_GT(opsAfter->asInt(), 0);
}

TEST(ObsPhases, DiffSimStatsReportsFirstDivergingLoop)
{
    Program prog = loopProgram(15, 1);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    SimConfig sc;
    sc.bufferOps = 64;
    SimStats a = VliwSim(cr.code, sc).run();
    SimStats b = a;
    ASSERT_FALSE(b.loops.empty());
    b.loops[0].iterations += 5;
    b.cycles += 1;

    const std::string diff = obs::diffSimStats(a, b);
    EXPECT_NE(diff.find("sim.cycles"), std::string::npos);
    EXPECT_NE(diff.find("iterations"), std::string::npos);
    EXPECT_NE(diff.find("first diverging loop id: 0"),
              std::string::npos);
}

} // namespace
} // namespace lbp
