/**
 * @file
 * Bench-history timeline and regression-gate tests: flattening
 * (escaped dotted keys, exact integer widths), the jsonl store
 * round-trip, key classification, the median+MAD window math and its
 * edge cases (empty history, single record), the null-poison policy
 * shared with diffRegistries, and the structural contract of the
 * self-contained HTML report.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/history.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/version.hh"

namespace lbp
{
namespace
{

using obs::CheckPolicy;
using obs::CheckReport;
using obs::HistoryRecord;
using obs::Json;
using obs::KeyClass;
using obs::Verdict;

/** The verdict recorded for @p key, or nullptr if it never appears. */
const obs::KeyVerdict *
findVerdict(const CheckReport &r, const std::string &key)
{
    for (const auto &kv : r.verdicts)
        if (kv.key == key)
            return &kv;
    return nullptr;
}

/** A minimal bench-shaped doc: {"bench": "t", <key>: <value>}. */
Json
benchDoc(const std::string &key, Json value)
{
    Json doc = Json::object();
    doc.set("bench", Json::str("t"));
    doc.set(key, std::move(value));
    return doc;
}

std::vector<HistoryRecord>
historyOf(std::initializer_list<const Json *> docs)
{
    std::vector<HistoryRecord> out;
    for (const Json *d : docs)
        out.push_back(obs::makeHistoryRecord(*d));
    return out;
}

// ------------------------------------------------------- flattening

TEST(ObsHistory, FlattenEscapesDottedSegments)
{
    // {"a.b": {"c": 1}} and {"a": {"b.c": 2}} must flatten to
    // DISTINCT keys, or registry metric names (which contain dots)
    // would collide with genuine nesting.
    Json d1 = Json::object();
    Json inner1 = Json::object();
    inner1.set("c", Json::integer(1));
    d1.set("a.b", std::move(inner1));

    Json d2 = Json::object();
    Json inner2 = Json::object();
    inner2.set("b.c", Json::integer(2));
    d2.set("a", std::move(inner2));

    const auto f1 = obs::flattenLeaves(d1);
    const auto f2 = obs::flattenLeaves(d2);
    ASSERT_EQ(f1.size(), 1u);
    ASSERT_EQ(f2.size(), 1u);
    EXPECT_EQ(f1[0].first, "a\\.b.c");
    EXPECT_EQ(f2[0].first, "a.b\\.c");
    EXPECT_NE(f1[0].first, f2[0].first);

    // Backslashes in raw names are escaped too.
    Json d3 = Json::object();
    d3.set("w\\x.y", Json::integer(3));
    const auto f3 = obs::flattenLeaves(d3);
    ASSERT_EQ(f3.size(), 1u);
    EXPECT_EQ(f3[0].first, "w\\\\x\\.y");
}

TEST(ObsHistory, FlattenDeepNestingAndArrays)
{
    Json doc = Json::object();
    Json lvl1 = Json::object();
    Json lvl2 = Json::object();
    Json arr = Json::array();
    arr.push(Json::integer(10));
    arr.push(Json::integer(20));
    lvl2.set("leaf.ms", std::move(arr));
    lvl1.set("mid", std::move(lvl2));
    doc.set("top", std::move(lvl1));

    const auto flat = obs::flattenLeaves(doc);
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat[0].first, "top.mid.leaf\\.ms.0");
    EXPECT_EQ(flat[1].first, "top.mid.leaf\\.ms.1");
    EXPECT_EQ(flat[1].second.asInt(), 20);
}

TEST(ObsHistory, FlattenSkipsIdentityRootsAndBins)
{
    Json doc = Json::object();
    doc.set("schema_version", Json::integer(2));
    doc.set("git_sha", Json::str("abc"));
    Json machine = Json::object();
    machine.set("threads", Json::integer(8));
    doc.set("machine", std::move(machine));
    Json meta = Json::object();
    meta.set("workload", Json::str("adpcm_dec"));
    doc.set("meta", std::move(meta));
    Json hist = Json::object();
    hist.set("p50", Json::integer(7));
    Json bins = Json::array();
    bins.push(Json::integer(1));
    hist.set("bins", std::move(bins));
    doc.set("h", std::move(hist));

    const auto flat = obs::flattenLeaves(doc);
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].first, "h.p50");
}

// -------------------------------------------------- store round-trip

TEST(ObsHistory, RecordRoundTripKeepsExactIntegerWidths)
{
    const std::uint64_t uMax =
        std::numeric_limits<std::uint64_t>::max();
    Json doc = Json::object();
    doc.set("bench", Json::str("widths"));
    doc.set("u", Json::uinteger(uMax));
    doc.set("i", Json::integer(std::int64_t{-123456789012345678}));

    const std::string path =
        testing::TempDir() + "/lbp_history_widths.jsonl";
    std::remove(path.c_str());

    const HistoryRecord rec = obs::makeHistoryRecord(doc);
    std::string error;
    ASSERT_TRUE(obs::appendHistory(path, rec, error)) << error;
    ASSERT_TRUE(obs::appendHistory(path, rec, error)) << error;

    const auto back = obs::loadHistory(path, error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].source, "widths");
    EXPECT_EQ(back[0].gitSha, obs::gitSha());

    // uint64 max and a large negative int64 survive the jsonl write
    // and re-parse exactly — not via a double.
    const Json *u = back[1].find("u");
    ASSERT_NE(u, nullptr);
    EXPECT_EQ(u->asUint(), uMax);
    const Json *i = back[1].find("i");
    ASSERT_NE(i, nullptr);
    EXPECT_EQ(i->asInt(), std::int64_t{-123456789012345678});

    // The exact-class gate sees them as equal...
    CheckReport ok = obs::checkAgainstHistory(back, doc);
    EXPECT_FALSE(ok.failed());

    // ...and off-by-one at uint64 max still trips it.
    Json drift = Json::object();
    drift.set("bench", Json::str("widths"));
    drift.set("u", Json::uinteger(uMax - 1));
    drift.set("i", Json::integer(std::int64_t{-123456789012345678}));
    CheckReport bad = obs::checkAgainstHistory(back, drift);
    EXPECT_TRUE(bad.failed());
    const auto *kv = findVerdict(bad, "u");
    ASSERT_NE(kv, nullptr);
    EXPECT_EQ(kv->verdict, Verdict::ExactMismatch);

    std::remove(path.c_str());
}

TEST(ObsHistory, LoadMissingFileIsEmptyNotError)
{
    std::string error;
    const auto recs = obs::loadHistory(
        testing::TempDir() + "/lbp_no_such_history.jsonl", error);
    EXPECT_TRUE(recs.empty());
    EXPECT_TRUE(error.empty());
}

TEST(ObsHistory, LoadMalformedLineNamesLineNumber)
{
    const std::string path =
        testing::TempDir() + "/lbp_history_bad.jsonl";
    {
        std::ofstream os(path);
        os << "{\"history_schema\":1,\"source\":\"t\","
              "\"values\":{}}\n";
        os << "not json\n";
    }
    std::string error;
    obs::loadHistory(path, error);
    EXPECT_NE(error.find(":2:"), std::string::npos) << error;
    std::remove(path.c_str());
}

// ----------------------------------------------------- key classes

TEST(ObsHistory, ClassifyKeyPolicies)
{
    // Bench-style camelCase timings and the registry's ".ms" gauges
    // (one escaped segment after flattening) are both Timing.
    EXPECT_EQ(obs::classifyKey("timing.wallMs"), KeyClass::Timing);
    EXPECT_EQ(obs::classifyKey("timing.speedup"), KeyClass::Timing);
    EXPECT_EQ(obs::classifyKey(
                  "metrics.compile\\.phase\\.02_inline\\.ms"),
              KeyClass::Timing);
    EXPECT_EQ(obs::classifyKey("metrics.compile\\.total\\.ms"),
              KeyClass::Timing);

    // Counters, fractions, energies: exact.
    EXPECT_EQ(obs::classifyKey("metrics.sim\\.cycles"),
              KeyClass::Exact);
    EXPECT_EQ(obs::classifyKey("points.0.bufferFraction.3"),
              KeyClass::Exact);

    // Machine knobs and the bench name are identity, never compared.
    EXPECT_EQ(obs::classifyKey("timing.threads"), KeyClass::Identity);
    EXPECT_EQ(obs::classifyKey("bench"), KeyClass::Identity);

    // Array-indexed wall clocks are per-point: diagnostic in the doc
    // but never recorded or gated (a single scheduler preemption
    // spikes one sub-ms point far beyond any honest MAD window).
    // The numeric segment may sit anywhere on the path, and exact
    // keys under an index stay exact.
    EXPECT_EQ(obs::classifyKey("points.17.fastMs"),
              KeyClass::PerPoint);
    EXPECT_EQ(obs::classifyKey("points.0.referenceMs"),
              KeyClass::PerPoint);
    EXPECT_EQ(obs::classifyKey("points.3.speedup"),
              KeyClass::PerPoint);
    EXPECT_EQ(obs::classifyKey("sweep.4.inner.ms"),
              KeyClass::PerPoint);
    EXPECT_EQ(obs::classifyKey("points.17.cycles"),
              KeyClass::Exact);
    // An escaped dot does not fake an index boundary: "0.ms" as one
    // literal segment is a plain Timing gauge name.
    EXPECT_EQ(obs::classifyKey("metrics.0\\.ms.v.ms"),
              KeyClass::Timing);

    // Per-workload drill-down blocks are recorded but never gated;
    // the aggregate leaves next to them stay exact.
    EXPECT_EQ(obs::classifyKey("trace_cache.per_workload.g724_dec"
                               ".replay_coverage"),
              KeyClass::PerPoint);
    EXPECT_EQ(obs::classifyKey(
                  "trace_cache.per_workload.adpcm_enc.replayed_ops"),
              KeyClass::PerPoint);
    EXPECT_EQ(obs::classifyKey("trace_cache.replay_coverage"),
              KeyClass::Exact);
}

TEST(ObsHistory, PerPointKeysNeverRecordedNorGated)
{
    // A bench doc with a spiky per-point timing: the record drops the
    // per-point leaves, and a 5x spike on one point passes the gate
    // while the aggregate stays windowed.
    auto doc = [](double pointMs, double totalMs) {
        obs::Json points = obs::Json::array();
        obs::Json p = obs::Json::object();
        p.set("fastMs", obs::Json::number(pointMs));
        p.set("cycles", obs::Json::uinteger(1234));
        points.push(std::move(p));
        obs::Json d = obs::Json::object();
        d.set("bench", obs::Json::str("pp"));
        d.set("totalMs", obs::Json::number(totalMs));
        d.set("points", std::move(points));
        return d;
    };

    const obs::HistoryRecord rec = obs::makeHistoryRecord(doc(1, 10));
    EXPECT_EQ(rec.find("points.0.fastMs"), nullptr)
        << "per-point timing must not be recorded";
    ASSERT_NE(rec.find("points.0.cycles"), nullptr)
        << "per-point counters stay recorded (exact-classed)";
    ASSERT_NE(rec.find("totalMs"), nullptr);

    const std::vector<obs::HistoryRecord> hist = {rec, rec, rec};
    const obs::CheckReport rep =
        obs::checkAgainstHistory(hist, doc(5, 10), obs::CheckPolicy{});
    EXPECT_FALSE(rep.failed()) << "5x one-point spike must not gate";
    for (const auto &v : rep.verdicts)
        EXPECT_NE(v.key, "points.0.fastMs")
            << "per-point timing must not even be judged";
}

// ------------------------------------------------------ window math

TEST(ObsHistory, EmptyHistoryPassesAsNoBaseline)
{
    const Json doc = benchDoc("x", Json::integer(42));
    const CheckReport r = obs::checkAgainstHistory({}, doc);
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(r.baselineRecords, 0);
    const auto *kv = findVerdict(r, "x");
    ASSERT_NE(kv, nullptr);
    EXPECT_EQ(kv->verdict, Verdict::NoBaseline);
}

TEST(ObsHistory, SingleRecordWindowDegeneratesToRelAbs)
{
    // One record: MAD = 0, so the gate is rel/abs around the single
    // sample. rel=10% of 100ms = 10ms dominates abs.
    const Json base = benchDoc("wallMs", Json::number(100.0));
    const auto hist = historyOf({&base});

    const Json within = benchDoc("wallMs", Json::number(109.0));
    EXPECT_FALSE(obs::checkAgainstHistory(hist, within).failed());

    const Json slow = benchDoc("wallMs", Json::number(120.0));
    const CheckReport r = obs::checkAgainstHistory(hist, slow);
    EXPECT_TRUE(r.failed());
    const auto *kv = findVerdict(r, "wallMs");
    ASSERT_NE(kv, nullptr);
    EXPECT_EQ(kv->verdict, Verdict::Regressed);
    EXPECT_EQ(kv->samples, 1);
    EXPECT_DOUBLE_EQ(kv->baseline, 100.0);
    EXPECT_DOUBLE_EQ(kv->spread, 0.0);
    EXPECT_DOUBLE_EQ(kv->threshold, 10.0);

    // The same magnitude downward is an improvement, not a failure.
    const Json fast = benchDoc("wallMs", Json::number(80.0));
    const CheckReport r2 = obs::checkAgainstHistory(hist, fast);
    EXPECT_FALSE(r2.failed());
    EXPECT_EQ(findVerdict(r2, "wallMs")->verdict, Verdict::Improved);
}

TEST(ObsHistory, MadWindowAbsorbsObservedNoise)
{
    // Noisy history: 100 +/- ~6ms. The MAD term lifts the threshold
    // well past the rel band, so a 112ms sample inside the observed
    // noise passes while a genuine 2x regression still fails.
    std::vector<Json> docs;
    for (double v : {94.0, 106.0, 100.0, 97.0, 103.0})
        docs.push_back(benchDoc("wallMs", Json::number(v)));
    std::vector<HistoryRecord> hist;
    for (const auto &d : docs)
        hist.push_back(obs::makeHistoryRecord(d));

    const Json noisy = benchDoc("wallMs", Json::number(112.0));
    const CheckReport r = obs::checkAgainstHistory(hist, noisy);
    EXPECT_FALSE(r.failed()) << findVerdict(r, "wallMs")->detail;
    // median 100, deviations {6,6,0,3,3} -> MAD 3, threshold
    // max(0.05, 10, 4*1.4826*3 = 17.79) = 17.79.
    EXPECT_NEAR(findVerdict(r, "wallMs")->threshold, 17.7912, 1e-9);

    const Json doubled = benchDoc("wallMs", Json::number(200.0));
    EXPECT_TRUE(obs::checkAgainstHistory(hist, doubled).failed());
}

TEST(ObsHistory, WindowUsesOnlyNewestSamples)
{
    // 10 records: eight fast (2ms) then two slow (100ms). With
    // window=2 the baseline is the recent slow regime, so another
    // 100ms run passes; with window=10 the old fast majority drags
    // the median down and the same run fails.
    std::vector<HistoryRecord> hist;
    for (int i = 0; i < 8; ++i) {
        const Json d = benchDoc("wallMs", Json::number(2.0));
        hist.push_back(obs::makeHistoryRecord(d));
    }
    for (int i = 0; i < 2; ++i) {
        const Json d = benchDoc("wallMs", Json::number(100.0));
        hist.push_back(obs::makeHistoryRecord(d));
    }
    const Json cur = benchDoc("wallMs", Json::number(100.0));

    CheckPolicy narrow;
    narrow.window = 2;
    EXPECT_FALSE(obs::checkAgainstHistory(hist, cur, narrow).failed());

    CheckPolicy wide;
    wide.window = 10;
    EXPECT_TRUE(obs::checkAgainstHistory(hist, cur, wide).failed());
}

TEST(ObsHistory, SpeedupRegressesDownward)
{
    const Json base = benchDoc("speedup", Json::number(4.0));
    const auto hist = historyOf({&base});

    const Json worse = benchDoc("speedup", Json::number(3.0));
    const CheckReport r = obs::checkAgainstHistory(hist, worse);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(findVerdict(r, "speedup")->verdict, Verdict::Regressed);

    const Json better = benchDoc("speedup", Json::number(5.0));
    const CheckReport r2 = obs::checkAgainstHistory(hist, better);
    EXPECT_FALSE(r2.failed());
    EXPECT_EQ(findVerdict(r2, "speedup")->verdict, Verdict::Improved);
}

TEST(ObsHistory, MissingAndNewKeysAreDistinct)
{
    Json base = Json::object();
    base.set("bench", Json::str("t"));
    base.set("gone", Json::integer(1));
    const auto hist = historyOf({&base});

    Json cur = Json::object();
    cur.set("bench", Json::str("t"));
    cur.set("fresh", Json::integer(2));
    const CheckReport r = obs::checkAgainstHistory(hist, cur);
    EXPECT_TRUE(r.failed()); // the vanished key fails...
    EXPECT_EQ(findVerdict(r, "gone")->verdict, Verdict::MissingKey);
    // ...but the new key merely gets noted.
    EXPECT_EQ(findVerdict(r, "fresh")->verdict, Verdict::NewKey);
    EXPECT_FALSE(obs::verdictFails(Verdict::NewKey));
}

// ------------------------------------------------- null-poison policy

TEST(ObsHistory, NullGaugeIsPoisonInGateAndDiff)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // A NaN gauge serializes as null in the registry dump...
    obs::Registry ra;
    ra.gauge("power.totalNj").set(nan);
    const Json da = ra.toJson();
    std::ostringstream os;
    da.write(os);
    EXPECT_NE(os.str().find("null"), std::string::npos);

    // ...and diffRegistries flags it even against an identical dump:
    // null == null is still a mismatch, because NaN never equals
    // anything and silence would hide a poisoned metric.
    const auto selfDiff = obs::diffRegistries(da, da);
    ASSERT_EQ(selfDiff.size(), 1u);
    EXPECT_EQ(selfDiff[0].key, "power.totalNj");
    EXPECT_NE(selfDiff[0].a.find("null"), std::string::npos);

    // A finite-vs-null pair is also a diff, with distinct renderings
    // for "null" and "absent".
    obs::Registry rb;
    rb.gauge("power.totalNj").set(1.5);
    const auto diff = obs::diffRegistries(da, rb.toJson());
    ASSERT_EQ(diff.size(), 1u);
    EXPECT_NE(diff[0].a.find("non-finite"), std::string::npos);

    // The history gate: a null current value fails as NonFinite no
    // matter the baseline, even a null-for-null repeat.
    const Json fine = benchDoc("energyNj", Json::number(2.0));
    const Json poisoned = benchDoc("energyNj", Json::null());
    const auto hist = historyOf({&fine});
    const CheckReport r = obs::checkAgainstHistory(hist, poisoned);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(findVerdict(r, "energyNj")->verdict, Verdict::NonFinite);

    const auto histNull = historyOf({&poisoned});
    const CheckReport r2 =
        obs::checkAgainstHistory(histNull, poisoned);
    EXPECT_TRUE(r2.failed());
    EXPECT_EQ(findVerdict(r2, "energyNj")->verdict,
              Verdict::NonFinite);

    // Recovery: finite now, null in the store, passes.
    const CheckReport r3 = obs::checkAgainstHistory(histNull, fine);
    EXPECT_FALSE(r3.failed());

    // And a null is NOT conflated with a missing key.
    Json absent = Json::object();
    absent.set("bench", Json::str("t"));
    const CheckReport r4 = obs::checkAgainstHistory(histNull, absent);
    EXPECT_TRUE(r4.failed());
    EXPECT_EQ(findVerdict(r4, "energyNj")->verdict,
              Verdict::MissingKey);

    // An IN-MEMORY NaN (Kind::Number holding NaN, before any
    // serialize/parse lowers it to null) is equally poison, for both
    // key classes. NaN compares false against every threshold, so
    // without an explicit check a timing gauge would pass as Ok.
    Json inMem = Json::object();
    inMem.set("bench", Json::str("t"));
    inMem.set("wallMs", Json::number(nan));
    inMem.set("energyNj", Json::number(nan));
    Json finePrior = Json::object();
    finePrior.set("bench", Json::str("t"));
    finePrior.set("wallMs", Json::number(3.0));
    finePrior.set("energyNj", Json::number(2.0));
    const auto hist2 = historyOf({&finePrior});
    const CheckReport r5 = obs::checkAgainstHistory(hist2, inMem);
    EXPECT_TRUE(r5.failed());
    EXPECT_EQ(findVerdict(r5, "wallMs")->verdict, Verdict::NonFinite);
    EXPECT_EQ(findVerdict(r5, "energyNj")->verdict,
              Verdict::NonFinite);
}

// -------------------------------------------------- report contract

TEST(ObsHistory, CheckReportJsonShape)
{
    const Json base = benchDoc("wallMs", Json::number(100.0));
    const auto hist = historyOf({&base});
    const Json slow = benchDoc("wallMs", Json::number(200.0));
    const CheckReport r = obs::checkAgainstHistory(hist, slow);
    const Json j = r.toJson();
    EXPECT_TRUE(j.find("failed")->asBool());
    EXPECT_EQ(j.find("source")->asString(), "t");
    EXPECT_EQ(j.find("baseline_records")->asInt(), 1);
    ASSERT_EQ(j.find("verdicts")->items().size(), 1u);
    const Json &v = j.find("verdicts")->items()[0];
    EXPECT_EQ(v.find("key")->asString(), "wallMs");
    EXPECT_EQ(v.find("verdict")->asString(), "REGRESSED");
    // The machine-readable stamp rides along.
    ASSERT_NE(j.find("git_sha"), nullptr);
}

TEST(ObsReport, HtmlIsSelfContainedWithAllSections)
{
    obs::Registry reg;
    reg.info("workload", "unit");
    reg.counter("sim.cycles").set(123);
    reg.gauge("compile.phase.01_profile.ms").set(1.25);
    reg.gauge("compile.total.ms").set(2.5);
    reg.histogram("sim.loop.bodyOps").add(34, 2.0);

    obs::ReportData data;
    data.workload = "unit";
    data.registryDoc = reg.toJson();
    data.history.push_back(
        obs::makeHistoryRecord(data.registryDoc));
    data.historyPath = "unit.jsonl";
    data.check = obs::checkAgainstHistory(data.history,
                                          data.registryDoc)
                     .toJson();

    std::ostringstream os;
    obs::writeHtmlReport(os, data);
    const std::string html = os.str();

    for (const char *anchor :
         {"id=\"meta\"", "id=\"gate\"", "id=\"trajectories\"",
          "id=\"metrics\"", "id=\"histograms\"", "id=\"scorecard\"",
          "id=\"phases\"", "id=\"prof\"", "class=\"spark\"",
          "<svg"})
        EXPECT_NE(html.find(anchor), std::string::npos) << anchor;

    // No self-profile in this document: the section renders an
    // explicit placeholder, never silently disappears.
    EXPECT_NE(html.find("no self-profile in this document"),
              std::string::npos);

    // Self-contained: no external fetches of any kind.
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<script src"), std::string::npos);

    // Metric values pass through htmlEscape on the way in.
    EXPECT_EQ(obs::htmlEscape("a<b&\"c\""), "a&lt;b&amp;&quot;c&quot;");
}

TEST(ObsReport, ProfSectionCarriesDiagnostics)
{
    obs::Registry reg;
    obs::ReportData data;
    data.workload = "unit";
    data.registryDoc = reg.toJson();

    // Profiler snapshot with lost samples: the subtitle must surface
    // the drop count (the split under-counts whatever was dropped).
    Json prof = Json::object();
    prof.set("samples", Json::uinteger(90));
    prof.set("untracked", Json::uinteger(5));
    prof.set("dropped", Json::uinteger(10));
    prof.set("attributed_fraction", Json::number(0.85));
    Json profRegions = Json::object();
    profRegions.set("bench", Json::uinteger(85));
    prof.set("regions", std::move(profRegions));
    data.prof = std::move(prof);

    std::ostringstream os;
    obs::writeHtmlReport(os, data);
    const std::string html = os.str();
    EXPECT_NE(html.find("10 samples dropped"), std::string::npos);
    EXPECT_NE(html.find("85% attributed to named regions"),
              std::string::npos);
}

} // namespace
} // namespace lbp
