/**
 * @file
 * Host PMU backend tests. The CI fleet spans bare metal, VMs, and
 * containers without a hardware PMU, so every test here must pass in
 * all three worlds: assertions about live counter values are
 * conditional on PmuSession::start() succeeding, while the graceful
 * degradation contract — start() fails with a reason, snapshots say
 * why, published registries differ from a no-pmu run ONLY in pmu.*
 * keys — is asserted unconditionally (it IS the contract this host
 * exercises).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/compiler.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/publish.hh"
#include "obs/registry.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

namespace pmu = obs::pmu;
using obs::Json;

/** A synthetic available snapshot with one region, for pure-math
 *  tests that must not depend on host hardware. */
pmu::Snapshot
syntheticSnapshot()
{
    pmu::Snapshot s;
    s.available = true;
    for (std::size_t i = 0; i < pmu::kNumPmuCounters; ++i)
        s.counterPresent[i] = true;
    constexpr auto idx = [](pmu::PmuCounter c) {
        return static_cast<std::size_t>(c);
    };
    pmu::PmuRegion r;
    r.label = "bench";
    r.counts[idx(pmu::PmuCounter::Cycles)] = 800;
    r.counts[idx(pmu::PmuCounter::Instructions)] = 1600;
    r.counts[idx(pmu::PmuCounter::Branches)] = 400;
    r.counts[idx(pmu::PmuCounter::BranchMisses)] = 8;
    r.counts[idx(pmu::PmuCounter::CacheMisses)] = 16;
    s.regions.push_back(r);
    s.untracked[idx(pmu::PmuCounter::Cycles)] = 200;
    s.total[idx(pmu::PmuCounter::Cycles)] = 1000;
    s.total[idx(pmu::PmuCounter::Instructions)] = 1700;
    s.total[idx(pmu::PmuCounter::Branches)] = 420;
    s.total[idx(pmu::PmuCounter::BranchMisses)] = 10;
    s.total[idx(pmu::PmuCounter::CacheMisses)] = 20;
    return s;
}

TEST(ObsPmu, CounterNamesAreStableKeySegments)
{
    EXPECT_STREQ(pmu::pmuCounterName(pmu::PmuCounter::Cycles),
                 "cycles");
    EXPECT_STREQ(pmu::pmuCounterName(pmu::PmuCounter::Instructions),
                 "instructions");
    EXPECT_STREQ(pmu::pmuCounterName(pmu::PmuCounter::BranchMisses),
                 "branchMisses");
    EXPECT_STREQ(
        pmu::pmuCounterName(pmu::PmuCounter::StalledBackend),
        "stalledBackend");
}

TEST(ObsPmu, AttributedCycleFractionMath)
{
    pmu::Snapshot empty;
    EXPECT_DOUBLE_EQ(empty.attributedCycleFraction(), 0.0);
    const pmu::Snapshot s = syntheticSnapshot();
    EXPECT_DOUBLE_EQ(s.attributedCycleFraction(), 0.8);
}

TEST(ObsPmu, SnapshotJsonCarriesRawCountsAndDerivedRates)
{
    const Json j = pmu::snapshotJson(syntheticSnapshot());
    EXPECT_TRUE(j.find("available")->asBool());
    const Json *bench = j.find("regions")->find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->find("cycles")->asDouble(), 800);
    EXPECT_DOUBLE_EQ(bench->find("ipc")->asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(bench->find("branchMissPct")->asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(bench->find("cacheMpki")->asDouble(), 10.0);
    ASSERT_NE(j.find("untracked"), nullptr);
    ASSERT_NE(j.find("total"), nullptr);
    EXPECT_DOUBLE_EQ(
        j.find("attributedCycleFraction")->asDouble(), 0.8);
}

TEST(ObsPmu, SnapshotJsonUnavailableCarriesReasonOnly)
{
    pmu::Snapshot s;
    s.reason = "unit-test reason";
    const Json j = pmu::snapshotJson(s);
    EXPECT_FALSE(j.find("available")->asBool());
    EXPECT_EQ(j.find("reason")->asString(), "unit-test reason");
    EXPECT_EQ(j.find("regions"), nullptr);
    EXPECT_EQ(j.find("total"), nullptr);
}

TEST(ObsPmu, SnapshotTableRendersRatesAndReason)
{
    std::ostringstream os;
    pmu::printSnapshotTable(os, syntheticSnapshot());
    const std::string t = os.str();
    EXPECT_NE(t.find("bench"), std::string::npos);
    EXPECT_NE(t.find("untracked"), std::string::npos);
    EXPECT_NE(t.find("2.00"), std::string::npos); // ipc column
    EXPECT_NE(t.find("attributed to named regions: 80.0%"),
              std::string::npos);

    pmu::Snapshot off;
    off.reason = "unit-test reason";
    std::ostringstream os2;
    pmu::printSnapshotTable(os2, off);
    EXPECT_EQ(os2.str(),
              "host pmu unavailable: unit-test reason\n");
}

/**
 * The start contract on ANY host: either counters open (and a later
 * snapshot is available with measured cycles), or start() fails with
 * a non-empty reason the snapshot repeats. Both arms leave the
 * session stopped and reusable.
 */
TEST(ObsPmu, StartEitherCountsOrExplainsWhy)
{
    pmu::PmuSession &s = pmu::PmuSession::instance();
    std::string why;
    const bool ok = s.start(&why);
    if (!ok) {
        EXPECT_FALSE(why.empty());
        const pmu::Snapshot snap = s.snapshot();
        EXPECT_FALSE(snap.available);
        EXPECT_EQ(snap.reason, why);
        EXPECT_FALSE(s.running());
        s.stop(); // must be a safe no-op
        return;
    }
    EXPECT_TRUE(s.running());
    {
        obs::prof::ScopedRegion r(obs::prof::Region::Bench);
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 2000000; ++i)
            sink = sink * 1664525u + 1013904223u;
    }
    s.stop();
    EXPECT_FALSE(s.running());
    const pmu::Snapshot snap = s.snapshot();
    ASSERT_TRUE(snap.available);
    constexpr std::size_t kCyc =
        static_cast<std::size_t>(pmu::PmuCounter::Cycles);
    EXPECT_GT(snap.total[kCyc], 0u);
    EXPECT_GE(snap.attributedCycleFraction(), 0.0);
    EXPECT_LE(snap.attributedCycleFraction(), 1.0);
    bool sawBench = false;
    for (const auto &r : snap.regions)
        if (r.label == "bench" && r.counts[kCyc] > 0)
            sawBench = true;
    EXPECT_TRUE(sawBench);
    s.reset();
    EXPECT_EQ(s.snapshot().total[kCyc], 0u);
}

TEST(ObsPmu, SecondStartWhileRunningIsRejected)
{
    pmu::PmuSession &s = pmu::PmuSession::instance();
    if (!s.start())
        GTEST_SKIP() << "host counters unavailable";
    std::string why;
    EXPECT_FALSE(s.start(&why));
    EXPECT_EQ(why, "pmu session already running");
    s.stop();
}

TEST(ObsPmu, PublishPmuUnavailablePublishesAvailabilityOnly)
{
    pmu::Snapshot s;
    s.reason = "unit-test reason";
    obs::Registry reg;
    obs::publishPmu(reg, s);
    const Json dump = reg.toJson();
    const Json *metrics = dump.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_NE(metrics->find("pmu.available"), nullptr);
    EXPECT_EQ(metrics->find("pmu.available")->asDouble(), 0);
    // The reason travels in the meta block (identity, never diffed),
    // and no other pmu metric appears.
    for (const auto &kv : metrics->members())
        EXPECT_TRUE(kv.first == "pmu.available")
            << "unexpected metric for unavailable pmu: " << kv.first;
    const Json *meta = dump.find("meta");
    ASSERT_NE(meta, nullptr);
    ASSERT_NE(meta->find("pmu.reason"), nullptr);
}

/**
 * The dumps-differ-only-in-pmu proof within one build: publishing a
 * pmu snapshot on top of identical sim results must leave every
 * non-pmu registry key untouched.
 */
TEST(ObsPmu, PublishPmuOnlyAddsPmuKeys)
{
    auto runOnce = [](obs::Registry &reg) {
        CompileResult cr;
        Program p = workloads::buildWorkload("adpcm_dec");
        CompileOptions o;
        o.level = OptLevel::Aggressive;
        o.bufferOps = 256;
        o.obsRegistry = &reg;
        compileProgram(p, o, cr);
        SimConfig sc;
        sc.bufferOps = 256;
        VliwSim sim(cr.code, sc);
        publishSimStats(reg, sim.run());
    };
    obs::Registry plain, withPmu;
    runOnce(plain);
    runOnce(withPmu);
    obs::publishPmu(withPmu, syntheticSnapshot());

    for (const auto &df :
         obs::diffRegistries(plain.toJson(), withPmu.toJson())) {
        const bool isPmu = df.key.rfind("pmu.", 0) == 0;
        const bool timing =
            df.key.size() >= 3 &&
            df.key.compare(df.key.size() - 3, 3, ".ms") == 0;
        EXPECT_TRUE(isPmu || timing)
            << "non-pmu key diverged: " << df.key << " (" << df.a
            << " vs " << df.b << ")";
    }
}

/**
 * Counting must never perturb the simulation: SimStats and every
 * published counter are identical whether the session is idle,
 * running, or unavailable (this host decides which arm actually
 * counts — both arms must hold regardless).
 */
TEST(ObsPmu, CountingNeverPerturbsSimulationCounters)
{
    auto runOnce = [](obs::Registry &reg) {
        CompileResult cr;
        Program p = workloads::buildWorkload("g724_dec");
        CompileOptions o;
        o.level = OptLevel::Aggressive;
        o.bufferOps = 256;
        o.obsRegistry = &reg;
        compileProgram(p, o, cr);
        SimConfig sc;
        sc.bufferOps = 256;
        VliwSim sim(cr.code, sc);
        const SimStats st = sim.run();
        publishSimStats(reg, st);
        return st;
    };

    obs::Registry regIdle;
    const SimStats idle = runOnce(regIdle);

    pmu::PmuSession &s = pmu::PmuSession::instance();
    const bool counting = s.start();
    obs::Registry regPmu;
    const SimStats counted = runOnce(regPmu);
    if (counting)
        s.stop();

    const std::string d =
        obs::diffSimStats(idle, counted, "pmu-idle", "pmu-counting");
    EXPECT_TRUE(d.empty()) << d;
    for (const auto &df :
         obs::diffRegistries(regIdle.toJson(), regPmu.toJson())) {
        const bool timing =
            df.key.size() >= 3 &&
            df.key.compare(df.key.size() - 3, 3, ".ms") == 0;
        EXPECT_TRUE(timing)
            << "non-timing key diverged under counting: " << df.key
            << " (" << df.a << " vs " << df.b << ")";
    }
}

} // namespace
} // namespace lbp
