/**
 * @file
 * Engine differential: the decoded fast-path executor must be
 * behaviorally indistinguishable from the reference interpreter —
 * every field of SimStats, including the per-loop counter vectors —
 * for every registry workload, under both predication
 * micro-architectures, at several buffer sizes — and on hand-patched
 * loops whose bundles read their own same-cycle writes, which pin the
 * decode-time proof behind in-place bundle commit.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "obs/cycle_stack.hh"
#include "obs/publish.hh"
#include "sim/decoded.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

/**
 * Compare via the registry diff: on mismatch the failure message is a
 * field-by-field listing of every diverging metric (including per-loop
 * counters) plus the first diverging loop id — not just "stats
 * differ".
 */
void
expectIdentical(const SimStats &ref, const SimStats &dec,
                const std::string &what)
{
    const std::string diff = obs::diffSimStats(ref, dec);
    EXPECT_TRUE(diff.empty()) << what << "\n" << diff;

    // Belt and braces on top of the registry diff: the per-loop
    // records must be element-wise equal through LoopStats::operator==
    // (which covers every field, so a field added to LoopStats but
    // forgotten in publishLoopStats still fails here).
    ASSERT_EQ(ref.loops.size(), dec.loops.size()) << what;
    for (std::size_t i = 0; i < ref.loops.size(); ++i)
        EXPECT_TRUE(ref.loops[i] == dec.loops[i])
            << what << " loop[" << i << "] (" << ref.loops[i].name
            << ") diverges between engines";
}

/**
 * The attribution invariant both engines maintain by construction:
 * every op the sim counts in SimStats::opsFromBuffer is attributed to
 * exactly one loop, so the per-loop column sums back to the aggregate.
 */
void
expectLoopAttributionExact(const SimStats &st, const std::string &what)
{
    std::uint64_t fromBuffer = 0, fromCache = 0;
    for (const auto &ls : st.loops) {
        fromBuffer += ls.opsFromBuffer;
        fromCache += ls.opsFromCache;
    }
    EXPECT_EQ(fromBuffer, st.opsFromBuffer) << what;
    // Cache-side attribution only covers ops fetched inside active
    // loop bodies, so it is bounded by (never equal to, in general)
    // the total cache-issued ops.
    EXPECT_LE(fromBuffer + fromCache, st.opsFetched) << what;
}

/**
 * The cycle-accounting invariant: the side-band CycleStack is closed
 * (sum over classes == SimStats::cycles) and its per-loop rows
 * integrate to the workload stack, class by class.
 */
void
expectCycleStackClosed(const VliwSim &sim, const SimStats &st,
                       const std::string &what)
{
    const obs::CycleStack &cs = sim.cycleStack();
    ASSERT_EQ(cs.numRows(), st.loops.size() + 1) << what;
    EXPECT_EQ(cs.totalCycles(), st.cycles)
        << what << ": cycle stack is not closed";
    const obs::CycleRow totals = cs.totals();
    obs::CycleRow integral{};
    for (std::size_t i = 0; i < cs.numRows(); ++i) {
        const obs::CycleRow &row = cs.row(static_cast<int>(i) - 1);
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            integral[k] += row[k];
    }
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
        EXPECT_EQ(integral[k], totals[k])
            << what << ": per-loop rows do not integrate for class "
            << obs::cycleClassName(static_cast<obs::CycleClass>(k));
}

/**
 * Replay is a decoded-engine-only refinement of buffer issue; folding
 * it back (collapseReplay) must make the stacks of two engine
 * configurations identical, row by row and class by class.
 */
void
expectCollapsedStacksEqual(const VliwSim &a, const VliwSim &b,
                           const std::string &what)
{
    const obs::CycleStack &ca = a.cycleStack();
    const obs::CycleStack &cb = b.cycleStack();
    ASSERT_EQ(ca.numRows(), cb.numRows()) << what;
    for (std::size_t i = 0; i < ca.numRows(); ++i) {
        const obs::CycleRow ra = obs::CycleStack::collapseReplay(
            ca.row(static_cast<int>(i) - 1));
        const obs::CycleRow rb = obs::CycleStack::collapseReplay(
            cb.row(static_cast<int>(i) - 1));
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            EXPECT_EQ(ra[k], rb[k])
                << what << ": collapsed stacks diverge at row " << i
                << " class "
                << obs::cycleClassName(
                       static_cast<obs::CycleClass>(k));
    }
}

class EngineDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineDifferential, DecodedMatchesReference)
{
    Program prog = workloads::buildWorkload(GetParam());

    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        for (PredMode mode : {PredMode::REGISTER, PredMode::SLOT}) {
            // REGISTER-mode simulation needs slot lowering off (the
            // two predication micro-architectures are exclusive).
            CompileOptions opts;
            opts.level = lvl;
            opts.slotLowering = mode == PredMode::SLOT;
            CompileResult cr;
            compileProgram(prog, opts, cr);
            for (int size : {32, 256, 1024}) {
                reallocateBuffers(cr, size);
                SimConfig sc;
                sc.bufferOps = size;
                sc.predMode = mode;
                sc.engine = SimEngine::REFERENCE;
                VliwSim refSim(cr.code, sc);
                const SimStats ref = refSim.run();
                // Decoded engine two ways: trace cache force-enabled
                // and force-disabled — so the replay path and the
                // general path are both pinned to the reference
                // regardless of the LBP_SIM_NO_TRACE_CACHE default.
                sc.engine = SimEngine::DECODED;
                sc.traceCache = TraceCacheMode::On;
                VliwSim decSim(cr.code, sc);
                const SimStats dec = decSim.run();
                sc.traceCache = TraceCacheMode::Off;
                VliwSim decOffSim(cr.code, sc);
                const SimStats decOff = decOffSim.run();
                EXPECT_EQ(ref.checksum, cr.goldenChecksum);
                expectLoopAttributionExact(
                    ref, GetParam() + " reference engine size=" +
                             std::to_string(size));
                expectLoopAttributionExact(
                    dec, GetParam() + " decoded engine size=" +
                             std::to_string(size));
                const std::string what =
                    GetParam() + " level=" +
                    (lvl == OptLevel::Aggressive ? "aggr"
                                                 : "trad") +
                    " mode=" +
                    (mode == PredMode::SLOT ? "slot" : "reg") +
                    " size=" + std::to_string(size);
                expectIdentical(ref, dec, what + " cache=on");
                expectIdentical(ref, decOff, what + " cache=off");
                expectCycleStackClosed(refSim, ref,
                                       what + " reference");
                expectCycleStackClosed(decSim, dec,
                                       what + " cache=on");
                expectCycleStackClosed(decOffSim, decOff,
                                       what + " cache=off");
                expectCollapsedStacksEqual(refSim, decSim,
                                           what + " ref vs on");
                expectCollapsedStacksEqual(refSim, decOffSim,
                                           what + " ref vs off");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineDifferential,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &w : workloads::allWorkloads())
            names.push_back(w.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- Same-bundle hazards: the decode-time direct-commit proof ------
//
// A bundle whose DecodedBundle::direct is set commits every write in
// place, on the general path and in trace replay alike. These tests
// pin the proof on hand-patched resident loops: each hazard bundle
// must decode as deferred and still match the reference engine
// (whose two-phase commit is the specification) with the trace cache
// on and off; the same ops in a hazard-free order decode as direct.

enum class Hazard
{
    RegAfterWrite,    ///< a register read after a same-bundle write
    GuardAfterDefine, ///< a guard predicate defined earlier
    SlotAfterDefine,  ///< a slot read after a slot define
    LoadAfterStore,   ///< a load after a store
    TwoSlotWrites,    ///< two slot-predicate writes
};

const char *
hazardName(Hazard h)
{
    switch (h) {
      case Hazard::RegAfterWrite: return "RegAfterWrite";
      case Hazard::GuardAfterDefine: return "GuardAfterDefine";
      case Hazard::SlotAfterDefine: return "SlotAfterDefine";
      case Hazard::LoadAfterStore: return "LoadAfterStore";
      case Hazard::TwoSlotWrites: return "TwoSlotWrites";
    }
    return "?";
}

/**
 * A 40-trip counted loop compiled at the Traditional level, then
 * patched: bundle 0 of the loop's head block gets the ops of @p h
 * (reader after writer when @p hazardous, writer after reader
 * otherwise), followed by a fresh counter k += 1, and the head's
 * bundle 1 stores what the hazard produced into the checksum region.
 * Every value read in the hazard depends on k, so reading this
 * iteration's write instead of the last iteration's changes the
 * checksum or the nullification count. Returns the head block
 * (kNoBlock, with a test failure, when there is nothing to patch).
 */
BlockId
hazardLoop(Hazard h, bool hazardous, CompileResult &cr)
{
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 64;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    {
        IRBuilder b(prog, f);
        const RegId acc = b.iconst(0);
        b.forLoop(0, 40, 1, [&](RegId i) {
            b.addTo(acc, Operand::reg(acc), Operand::reg(i));
            for (int p = 0; p < 4; ++p)
                b.binTo(Opcode::XOR, acc, Operand::reg(acc),
                        Operand::imm(p * 3 + 1));
        });
        b.storeW(Operand::imm(data), Operand::imm(0), Operand::reg(acc));
        b.ret({Operand::reg(acc)});
    }
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    compileProgram(prog, opts, cr);

    Function &fn = cr.ir.functions[cr.ir.entryFunc];
    SchedFunction &sf = cr.code.functions[cr.ir.entryFunc];
    BlockId head = kNoBlock;
    for (std::size_t b = 0; b < sf.blocks.size(); ++b)
        for (const Bundle &bu : sf.blocks[b].bundles)
            for (const SchedOp &so : bu.ops)
                if (so.op.op == Opcode::BR_CLOOP &&
                    so.op.target == static_cast<BlockId>(b))
                    head = static_cast<BlockId>(b);
    EXPECT_NE(head, kNoBlock) << "no resident counted loop";
    if (head == kNoBlock)
        return kNoBlock;
    std::vector<Bundle> &bundles = sf.blocks[head].bundles;
    EXPECT_GE(bundles.size(), 2u) << "loop body too short to patch";
    if (bundles.size() < 2)
        return kNoBlock;

    // Free issue slots of bundle 0, for the ops that need one.
    std::vector<int> freeSlots;
    for (int s = Machine::width - 1; s >= 0; --s) {
        bool used = false;
        for (const SchedOp &so : bundles[0].ops)
            used = used || so.slot == s;
        if (!used)
            freeSlots.push_back(s);
    }
    auto takeSlot = [&]() {
        EXPECT_FALSE(freeSlots.empty()) << "bundle 0 is full";
        const int s = freeSlots.empty() ? 0 : freeSlots.back();
        if (!freeSlots.empty())
            freeSlots.pop_back();
        return s;
    };

    const RegId k = fn.newReg();
    const RegId out = fn.newReg();
    auto R = [](RegId r) { return Operand::reg(r); };
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    auto slotDef = [&](int slot, Operand a, Operand b) {
        Operation def = makePredDef(PredDefKind::UT, 1, PredDefKind::NONE,
                                    0, CmpCond::LT, a, b);
        def.dsts = {Operand::slot(slot)};
        return def;
    };
    std::vector<SchedOp> writer, reader;
    switch (h) {
      case Hazard::RegAfterWrite: {
        const RegId t = fn.newReg();
        writer.push_back({makeBinary(Opcode::ADD, t, R(k), I(100))});
        reader.push_back({makeUnary(Opcode::MOV, out, R(t))});
        break;
      }
      case Hazard::GuardAfterDefine: {
        const PredId p = fn.newPred();
        writer.push_back({makePredDef(PredDefKind::UT, p,
                                      PredDefKind::NONE, 0,
                                      CmpCond::LT, R(k), I(20))});
        Operation mov = makeUnary(Opcode::MOV, out, R(k));
        mov.guard = p;
        reader.push_back({mov});
        break;
      }
      case Hazard::SlotAfterDefine: {
        const int slot = takeSlot();
        writer.push_back({slotDef(slot, R(k), I(20)), takeSlot()});
        Operation mov = makeUnary(Opcode::MOV, out, R(k));
        mov.sensitive = true;
        reader.push_back({mov, slot});
        break;
      }
      case Hazard::LoadAfterStore:
        writer.push_back({makeStore(Opcode::ST_W, I(data + 32), I(0),
                                    R(k))});
        reader.push_back({makeLoad(Opcode::LD_W, out, I(data + 32),
                                   I(0))});
        break;
      case Hazard::TwoSlotWrites:
        // Two defines of slots that stay 1 (0 < 1): nothing to
        // observe, but the deferred commit keeps the same-cycle
        // conflict check, so the bundle must not decode as direct.
        writer.push_back({slotDef(takeSlot(), I(0), I(1)), takeSlot()});
        if (hazardous)
            reader.push_back(
                {slotDef(takeSlot(), I(0), I(1)), takeSlot()});
        break;
    }
    std::vector<SchedOp> &ops0 = bundles[0].ops;
    const std::vector<SchedOp> &first = hazardous ? writer : reader;
    const std::vector<SchedOp> &second = hazardous ? reader : writer;
    ops0.insert(ops0.end(), first.begin(), first.end());
    ops0.insert(ops0.end(), second.begin(), second.end());
    ops0.push_back({makeBinary(Opcode::ADD, k, R(k), I(1))});
    EXPECT_LE(ops0.size(), static_cast<std::size_t>(Machine::width));
    bundles[1].ops.push_back(
        {makeStore(Opcode::ST_W, I(data + 8), I(0), R(out))});
    cr.code.link();
    return head;
}

class SameBundleHazard : public ::testing::TestWithParam<Hazard>
{
};

TEST_P(SameBundleHazard, DirectProofPinnedOnBothDrivers)
{
    for (const bool hazardous : {true, false}) {
        const std::string what =
            std::string(hazardName(GetParam())) +
            (hazardous ? " (hazard order)" : " (safe order)");
        CompileResult cr;
        const BlockId head = hazardLoop(GetParam(), hazardous, cr);
        ASSERT_NE(head, kNoBlock) << what;

        // The decode verdict for every bundle of the loop body: only
        // the patched bundle 0, and only in hazard order, defers.
        const DecodedImage img = buildDecodedImage(cr.code);
        const DecodedFunction &df =
            img.program.functions[cr.ir.entryFunc];
        const DecodedBlock &db = df.blocks[head];
        for (std::uint32_t bi = 0; bi < db.bundleCount; ++bi)
            EXPECT_EQ(df.bundles[db.firstBundle + bi].direct,
                      !(hazardous && bi == 0))
                << what << ": bundle " << bi;

        SimConfig sc;
        sc.bufferOps = 256;
        sc.engine = SimEngine::REFERENCE;
        VliwSim refSim(cr.code, sc);
        const SimStats ref = refSim.run();
        sc.engine = SimEngine::DECODED;
        sc.traceCache = TraceCacheMode::On;
        VliwSim onSim(cr.code, sc);
        const SimStats on = onSim.run();
        sc.traceCache = TraceCacheMode::Off;
        VliwSim offSim(cr.code, sc);
        const SimStats off = offSim.run();

        // The replay driver really ran the patched bundle.
        ASSERT_NE(onSim.traceCacheStats(), nullptr);
        EXPECT_GT(onSim.traceCacheStats()->replayedIterations, 30u)
            << what;
        expectIdentical(ref, on, what + " cache=on");
        expectIdentical(ref, off, what + " cache=off");
        expectCollapsedStacksEqual(refSim, onSim, what + " ref vs on");
        expectCollapsedStacksEqual(refSim, offSim,
                                   what + " ref vs off");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllHazards, SameBundleHazard,
    ::testing::Values(Hazard::RegAfterWrite, Hazard::GuardAfterDefine,
                      Hazard::SlotAfterDefine, Hazard::LoadAfterStore,
                      Hazard::TwoSlotWrites),
    [](const ::testing::TestParamInfo<Hazard> &info) {
        return std::string(hazardName(info.param));
    });

} // namespace
} // namespace lbp
