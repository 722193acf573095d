/**
 * @file
 * Resident-loop trace cache tests: traces are built exactly once at
 * first replayed residency and persist across runs, untraceable
 * bodies bail out to the general path (once per activation), buffer
 * evictions invalidate without triggering rebuild storms, and —
 * the contract everything else rests on — SimStats is bit-identical
 * with the cache forced on, forced off, and against the reference
 * interpreter, down to the per-loop counter vectors.
 *
 * Workload anchors (deterministic): adpcm_enc is the clean case (one
 * hot traceable loop, no evictions); g724_dec is the adversarial one
 * (bailouts, evictions, and replays in the same run).
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "obs/publish.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** Straight counted loop: traceable body, one hot activation. */
Program
countedLoopProgram(int trip)
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
        for (int p = 0; p < 4; ++p)
            b.binTo(Opcode::XOR, acc, R(acc), I(p * 3 + 1));
    });
    b.storeW(R(dp), I(0), R(acc));
    b.ret({R(acc)});
    return prog;
}

SimConfig
simConfig(int bufferOps, SimEngine engine, TraceCacheMode cacheMode)
{
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.engine = engine;
    sc.traceCache = cacheMode;
    return sc;
}

const TraceCacheStats &
statsOf(const VliwSim &sim)
{
    const TraceCacheStats *tc = sim.traceCacheStats();
    EXPECT_NE(tc, nullptr);
    return *tc;
}

TEST(TraceCache, SyntheticLoopReplaysEveryBufferedIteration)
{
    Program prog = countedLoopProgram(100);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.traceCache = TraceCacheMode::On;
    VliwSim sim(cr.code, sc);
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);

    // One recording iteration from memory; replay engages at the
    // first buffered iteration and carries the remaining 99.
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.builds, 1u);
    EXPECT_EQ(tc.replays, 1u);
    EXPECT_EQ(tc.bailouts, 0u);
    EXPECT_EQ(tc.replayedIterations, 99u);

    // Everything the loop issued from the buffer went through the
    // trace, and the per-loop split integrates back to the total.
    ASSERT_EQ(st.activeLoops().size(), 1u);
    const LoopStats &ls = *st.activeLoops().front();
    ASSERT_LT(static_cast<std::size_t>(0), tc.perLoop.size());
    EXPECT_EQ(tc.replayedOps, ls.opsFromBuffer);
    std::uint64_t perLoopOps = 0;
    for (const auto &pl : tc.perLoop)
        perLoopOps += pl.ops;
    EXPECT_EQ(perLoopOps, tc.replayedOps);
}

TEST(TraceCache, BuildsOnFirstResidencyAndPersistsAcrossRuns)
{
    Program prog = workloads::buildWorkload("adpcm_enc");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.traceCache = TraceCacheMode::On;
    VliwSim sim(cr.code, sc);

    sim.run();
    const TraceCacheStats &first = statsOf(sim);
    EXPECT_GE(first.builds, 1u);
    EXPECT_GE(first.replays, 1u);
    EXPECT_GT(first.replayedOps, 0u);

    // Second run on the same instance: counters reset, but the built
    // traces survive — replay re-engages with zero rebuilds.
    sim.run();
    const TraceCacheStats &second = statsOf(sim);
    EXPECT_EQ(second.builds, 0u);
    EXPECT_GE(second.replays, first.replays);
    EXPECT_EQ(second.replayedOps, first.replayedOps);
}

TEST(TraceCache, UntraceableResidentBodyBailsOutPerActivation)
{
    Program prog = workloads::buildWorkload("g724_dec");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_GT(tc.bailouts, 0u);

    // A bailout is counted at most once per activation (the declined
    // flag dedupes the per-iteration residency checks).
    std::uint64_t activations = 0;
    for (const auto &ls : st.loops)
        activations += ls.activations;
    EXPECT_LE(tc.bailouts, activations);

    // Every bailout names a concrete reason: the defensive Unknown
    // bucket stays empty, and the per-reason split integrates back
    // to the headline counter.
    EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::Unknown)],
              0u);
    std::uint64_t byReason = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceBailoutReason::Count);
         ++i)
        byReason += tc.bailoutsBy[i];
    EXPECT_EQ(byReason, tc.bailouts);
}

// ---- classifyTraceBody coverage ------------------------------------
//
// The compiler only produces a subset of untraceable shapes (e.g. it
// never emits a guarded backedge today), so the closed-enum coverage
// contract — every TraceBailoutReason reachable, Unknown never — is
// pinned on hand-assembled DecodedFunction images fed straight to the
// pure classifier.

MicroOp
microOp(Opcode op, ExecHandler h)
{
    MicroOp m;
    m.op = op;
    m.handler = h;
    return m;
}

MicroOp
aluOp()
{
    return microOp(Opcode::ADD, ExecHandler::ALU_ADD);
}

/**
 * One-block function: the given body ops, one per bundle, plus (by
 * default) a trailing unguarded BR_CLOOP backedge to the head.
 */
DecodedFunction
makeLoopBody(std::vector<MicroOp> body, bool withBackedge = true)
{
    DecodedFunction df;
    if (withBackedge) {
        MicroOp be = microOp(Opcode::BR_CLOOP,
                             ExecHandler::BR_CLOOP);
        be.target = 0;
        body.push_back(be);
    }
    for (std::size_t i = 0; i < body.size(); ++i) {
        DecodedBundle bu;
        bu.first = static_cast<std::uint32_t>(i);
        bu.count = 1;
        bu.sizeOps = 1;
        df.bundles.push_back(bu);
    }
    df.ops = std::move(body);
    DecodedBlock db;
    db.firstBundle = 0;
    db.bundleCount = static_cast<std::uint32_t>(df.bundles.size());
    db.valid = true;
    df.blocks.push_back(db);
    df.entry = 0;
    return df;
}

LoopCtx
headLoopCtx()
{
    LoopCtx ctx;
    ctx.head = 0;
    ctx.loopId = 0;
    ctx.counted = true;
    return ctx;
}

TEST(TraceCache, ClassifierCoversEveryBailoutReason)
{
    using R = TraceBailoutReason;
    const LoopCtx ctx = headLoopCtx();
    bool produced[static_cast<std::size_t>(R::Count)] = {};
    auto classify = [&](const LoopCtx &c, const DecodedFunction &df) {
        const R r = classifyTraceBody(c, df);
        produced[static_cast<std::size_t>(r)] = true;
        return r;
    };

    // The traceable shape first: straight ALU body, clean backedge.
    EXPECT_EQ(classify(ctx, makeLoopBody({aluOp()})), R::None);

    DecodedFunction invalid = makeLoopBody({aluOp()});
    invalid.blocks[0].valid = false;
    EXPECT_EQ(classify(ctx, invalid), R::EmptyBody);

    DecodedFunction hollow = makeLoopBody({aluOp()});
    hollow.blocks[0].bundleCount = 0;
    EXPECT_EQ(classify(ctx, hollow), R::EmptyBody);

    EXPECT_EQ(classify(ctx, makeLoopBody({aluOp()}, false)),
              R::NoHeadBackedge);

    // A wloop backedge does not satisfy a counted loop's search.
    DecodedFunction wrongKind = makeLoopBody({aluOp()}, false);
    MicroOp wloop = microOp(Opcode::BR_WLOOP, ExecHandler::BR);
    wloop.target = 0;
    wrongKind.ops.push_back(wloop);
    DecodedBundle bu;
    bu.first = 1;
    bu.count = 1;
    bu.sizeOps = 1;
    wrongKind.bundles.push_back(bu);
    wrongKind.blocks[0].bundleCount = 2;
    EXPECT_EQ(classify(ctx, wrongKind), R::NoHeadBackedge);

    // Guarded backedge: traceable (the guard is evaluated in stream
    // order at replay, a nullified backedge hands back as a
    // fall-through).
    DecodedFunction guarded = makeLoopBody({aluOp()});
    guarded.ops.back().guard = 1;  // any PredId != kNoPred (== 0)
    EXPECT_EQ(classify(ctx, guarded), R::None);

    DecodedFunction sensitive = makeLoopBody({aluOp()});
    sensitive.ops.back().sensitive = true;
    EXPECT_EQ(classify(ctx, sensitive), R::SlotSensitiveBackedge);

    // Calls stay untraceable.
    EXPECT_EQ(classify(ctx, makeLoopBody(
                  {aluOp(),
                   microOp(Opcode::CALL, ExecHandler::CALL)})),
              R::CallInBody);
    EXPECT_EQ(classify(ctx, makeLoopBody(
                  {aluOp(), microOp(Opcode::RET, ExecHandler::RET)})),
              R::CallInBody);

    // Extra control ops leaving the loop are side exits, which
    // replay turns into trace-exit checks...
    DecodedFunction jumper = makeLoopBody(
        {aluOp(), microOp(Opcode::JUMP, ExecHandler::JUMP)});
    EXPECT_EQ(classify(ctx, jumper), R::None);

    MicroOp sideBr = microOp(Opcode::BR, ExecHandler::BR);
    sideBr.target = 7;
    DecodedFunction sider = makeLoopBody({aluOp(), sideBr});
    EXPECT_EQ(classify(ctx, sider), R::None);

    // A BR_WLOOP to the head in a *counted* context is a plain branch
    // on the general path, so replay treats it as a side exit too.
    MicroOp wback = microOp(Opcode::BR_WLOOP, ExecHandler::BR);
    wback.target = 0;
    DecodedFunction countedWback = makeLoopBody({aluOp(), wback});
    EXPECT_EQ(classify(ctx, countedWback), R::None);

    // ...but bodies that re-enter the loop machinery are not.
    DecodedFunction nested = makeLoopBody(
        {aluOp(), microOp(Opcode::REC_CLOOP, ExecHandler::LOOP)});
    EXPECT_EQ(classify(ctx, nested), R::NestedLoop);

    // A second counted backedge ahead of the loop's own (an inner
    // hardware loop sharing the block).
    MicroOp innerBe = microOp(Opcode::BR_CLOOP, ExecHandler::BR_CLOOP);
    innerBe.target = 9;  // some other head
    DecodedFunction twoBack = makeLoopBody({innerBe, aluOp()});
    EXPECT_EQ(classify(ctx, twoBack), R::MultiBackedge);

    // A second *while* backedge to the head (same bundle as the real
    // one — the only place the scan can see it) mutates the
    // activation's own iteration state: not a side exit.
    DecodedFunction wmulti = makeLoopBody({aluOp()}, false);
    wmulti.ops.push_back(wback);
    wmulti.ops.push_back(wback);
    DecodedBundle wbu;
    wbu.first = 1;
    wbu.count = 2;
    wbu.sizeOps = 2;
    wmulti.bundles.push_back(wbu);
    wmulti.blocks[0].bundleCount = 2;
    LoopCtx wctx = headLoopCtx();
    wctx.counted = false;
    EXPECT_EQ(classify(wctx, wmulti), R::MultiBackedge);

    // BelowEngageThreshold is not a build verdict — the engagement
    // site counts it (covered end-to-end below); mark it so the
    // coverage sweep can require everything else from the classifier.
    produced[static_cast<std::size_t>(R::BelowEngageThreshold)] =
        true;

    EXPECT_FALSE(produced[static_cast<std::size_t>(R::Unknown)])
        << "nothing in the tree may classify as Unknown";
    for (std::size_t i = static_cast<std::size_t>(R::EmptyBody);
         i < static_cast<std::size_t>(R::Count); ++i)
        EXPECT_TRUE(produced[i])
            << "reason never produced: "
            << traceBailoutReasonName(static_cast<R>(i));
}

TEST(TraceCache, BackedgeGuardKeptInPredicatedTrace)
{
    // The compiler never emits a guarded backedge today, so the build
    // contract is pinned on a hand-assembled image fed straight to the
    // cache: the guarded body builds a Ready trace counted as
    // predicated, whose bundle range covers the backedge, with the
    // backedge's guard left to be read at replay.
    DecodedFunction df = makeLoopBody({aluOp()});
    df.ops.back().guard = 1;
    const LoopCtx ctx = headLoopCtx();

    TraceCache tc(1);
    LoopTrace &tr = tc.acquire(ctx, df);
    EXPECT_EQ(tr.state, LoopTrace::State::Ready);
    EXPECT_TRUE(tr.predicated);
    EXPECT_EQ(tr.firstBundle, 0u);
    ASSERT_EQ(tr.bundleCount, 2u);
    EXPECT_EQ(tr.beOp, 1u);
    const DecodedBundle &last = df.bundles[tr.firstBundle + 1];
    EXPECT_GE(tr.beOp, last.first);
    EXPECT_LT(tr.beOp, last.first + last.count);
    EXPECT_EQ(df.ops[tr.beOp].op, Opcode::BR_CLOOP);
    EXPECT_FALSE(df.ops[tr.beOp].alwaysExec);
    EXPECT_EQ(tc.stats().builds, 1u);
    EXPECT_EQ(tc.stats().predReplay.builds, 1u);

    // An unguarded straight body has the same trace shape — the
    // backedge stays in the replayed range — but is not counted as
    // predicated.
    DecodedFunction plain = makeLoopBody({aluOp()});
    TraceCache plainTc(1);
    LoopTrace &tp = plainTc.acquire(ctx, plain);
    EXPECT_EQ(tp.state, LoopTrace::State::Ready);
    EXPECT_FALSE(tp.predicated);
    ASSERT_EQ(tp.bundleCount, 2u);
    EXPECT_EQ(tp.beOp, 1u);
    EXPECT_EQ(plain.ops[tp.beOp].op, Opcode::BR_CLOOP);
    EXPECT_EQ(plainTc.stats().builds, 1u);
    EXPECT_EQ(plainTc.stats().predReplay.builds, 0u);
}

TEST(TraceCache, BackedgeGuardedLoopReplaysAndMatchesReference)
{
    // End to end: guard a compiled loop's BR_CLOOP with a fresh
    // predicate that a define in the function's first bundle sets
    // true once. Semantics are unchanged, but the body now has the
    // guarded-backedge shape, so replay must read the guard from live
    // state every iteration and still match the reference engine.
    Program prog = countedLoopProgram(100);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    Function &fn = cr.ir.functions[cr.ir.entryFunc];
    const PredId p = fn.newPred();
    SchedFunction &sf = cr.code.functions[cr.ir.entryFunc];
    int guarded = 0;
    for (std::size_t b = 0; b < sf.blocks.size(); ++b)
        for (Bundle &bu : sf.blocks[b].bundles)
            for (SchedOp &so : bu.ops)
                if (so.op.op == Opcode::BR_CLOOP &&
                    so.op.target == static_cast<BlockId>(b)) {
                    so.op.guard = p;
                    ++guarded;
                }
    ASSERT_EQ(guarded, 1);

    Bundle &first = sf.blocks[fn.entry].bundles.front();
    bool used[Machine::width] = {};
    for (const SchedOp &so : first.ops)
        if (so.slot >= 0)
            used[so.slot] = true;
    SchedOp def;
    def.op.op = Opcode::PRED_DEF;
    def.op.cond = CmpCond::EQ;
    def.op.defKind0 = PredDefKind::UT;
    def.op.dsts = {Operand::pred(p)};
    def.op.srcs = {I(0), I(0)};
    for (int s = 0; s < Machine::width && def.slot == kNoSlot; ++s)
        if (!used[s])
            def.slot = s;
    ASSERT_NE(def.slot, kNoSlot) << "first bundle has no free slot";
    first.ops.push_back(def);
    cr.code.link();

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.predReplay.builds, 1u);
    EXPECT_EQ(tc.predReplay.replays, 1u);
    EXPECT_EQ(tc.predReplay.iterations, 99u);
    EXPECT_EQ(tc.predReplay.backedgeFallthroughs, 0u);

    const SimStats ref =
        VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                   TraceCacheMode::Auto))
            .run();
    const SimStats off =
        VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::Off))
            .run();
    const std::string dOn =
        obs::diffSimStats(ref, st, "reference", "cache-on");
    EXPECT_TRUE(dOn.empty()) << dOn;
    const std::string dOff =
        obs::diffSimStats(ref, off, "reference", "cache-off");
    EXPECT_TRUE(dOff.empty()) << dOff;
}

TEST(TraceCache, ShortCountedTripBailsOutBelowEngageThreshold)
{
    // Trip count below kMinCountedReplayIters: the loop is buffered
    // and traceable, but the engagement site declines every
    // activation as not worth a replay setup.
    Program prog = countedLoopProgram(
        static_cast<int>(kMinCountedReplayIters) - 1);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);

    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.replays, 0u);
    EXPECT_GT(tc.bailouts, 0u);
    EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::BelowEngageThreshold)],
              tc.bailouts);
}

TEST(TraceCache, ReplayMinItersConfigFieldGatesEngagement)
{
    Program prog = countedLoopProgram(20);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    // A threshold above the trip count declines every activation with
    // the engage-threshold verdict...
    SimConfig gatedCfg = simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On);
    gatedCfg.replayMinIters = 1000;
    VliwSim gated(cr.code, gatedCfg);
    gated.run();
    const TraceCacheStats &gc = statsOf(gated);
    EXPECT_EQ(gc.replays, 0u);
    EXPECT_GT(gc.bailouts, 0u);
    EXPECT_EQ(gc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::BelowEngageThreshold)],
              gc.bailouts);

    // ...and zero disables the gate entirely.
    SimConfig openCfg = gatedCfg;
    openCfg.replayMinIters = 0;
    VliwSim open(cr.code, openCfg);
    open.run();
    EXPECT_GT(statsOf(open).replays, 0u);
    EXPECT_EQ(statsOf(open).bailouts, 0u);
}

/**
 * Counted loop whose body carries a rare side exit into a clamp
 * block that rejoins after the loop — the g724_dec post_filter
 * shape. After if-conversion and branch combining the exit is a
 * guarded BR inside the loop's single body block, which replay
 * compiles into a trace-exit check. With a huge threshold the exit
 * never triggers; with a small one the activation ends through the
 * side exit mid-flight.
 */
Program
sideExitLoopProgram(int trip, std::int64_t threshold)
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
    const BlockId bail = b.makeBlock();
    b.forLoop(0, trip, 1, [&](RegId i) {
        b.addTo(acc, R(acc), R(i));
        for (int p = 0; p < 4; ++p)
            b.binTo(Opcode::XOR, acc, R(acc), I(p * 5 + 3));
        const BlockId cont = b.makeBlock();
        b.br(CmpCond::GT, R(acc), I(threshold), bail);
        b.fallTo(cont);
        b.at(cont);
    });
    const BlockId join = b.makeBlock();
    b.jump(join);
    b.at(bail);
    b.movTo(acc, I(-1));
    b.fallTo(join);
    b.at(join);
    b.storeW(R(dp), I(0), R(acc));
    b.ret({R(acc)});
    return prog;
}

TEST(TraceCache, SideExitLoopBuildsPredicatedTraceAndReplays)
{
    // Exit never taken: the predicated trace carries the whole
    // residency with no bailout.
    Program prog = sideExitLoopProgram(60, std::int64_t{1} << 40);
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.bailouts, 0u);
    EXPECT_GE(tc.predReplay.builds, 1u);
    EXPECT_GT(tc.predReplay.replays, 0u);
    EXPECT_GT(tc.predReplay.iterations, 0u);
    EXPECT_EQ(tc.predReplay.sideExits, 0u);
    EXPECT_EQ(tc.predReplay.ops, tc.replayedOps);

    // Bit-identical against reference and the non-replaying engine.
    const SimStats ref =
        VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                   TraceCacheMode::Auto))
            .run();
    const SimStats off =
        VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::Off))
            .run();
    EXPECT_TRUE(obs::diffSimStats(ref, st, "reference", "cache-on")
                    .empty());
    EXPECT_TRUE(obs::diffSimStats(ref, off, "reference", "cache-off")
                    .empty());
}

TEST(TraceCache, SideExitTakenBailsBackToDispatchWithoutDivergence)
{
    // Threshold low enough that the exit fires mid-activation, after
    // replay has engaged: the trace hands control back to the
    // dispatch loop at the architectural side-exit point.
    Program prog = sideExitLoopProgram(60, 200);
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_GT(tc.predReplay.replays, 0u);
    EXPECT_EQ(tc.predReplay.sideExits, 1u);

    const SimStats ref =
        VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                   TraceCacheMode::Auto))
            .run();
    const SimStats off =
        VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::Off))
            .run();
    EXPECT_TRUE(obs::diffSimStats(ref, st, "reference", "cache-on")
                    .empty());
    EXPECT_TRUE(obs::diffSimStats(ref, off, "reference", "cache-off")
                    .empty());
}

TEST(TraceCache, EvictionInvalidatesWithoutRebuildStorm)
{
    Program prog = workloads::buildWorkload("g724_dec");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    sim.run();
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_GT(tc.invalidations, 0u);
    EXPECT_GT(tc.replays, 0u);

    // Invalidation marks a trace Stale; revalidation at the next
    // residency is O(1) because trace content is allocation-invariant.
    // A full rebuild per eviction would show builds on the order of
    // invalidations + replays; distinct traceable loops only is the
    // correct order of magnitude.
    EXPECT_LT(tc.builds, tc.invalidations);
}

TEST(TraceCache, StatsBitIdenticalOnOffAndReference)
{
    for (const char *name : {"adpcm_enc", "g724_dec", "mpg123"}) {
        Program prog = workloads::buildWorkload(name);
        CompileOptions opts;
        opts.level = OptLevel::Aggressive;
        opts.bufferOps = 256;
        CompileResult cr;
        compileProgram(prog, opts, cr);

        const SimStats ref =
            VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                       TraceCacheMode::Auto))
                .run();
        const SimStats on =
            VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                       TraceCacheMode::On))
                .run();
        const SimStats off =
            VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                       TraceCacheMode::Off))
                .run();

        const std::string dOn =
            obs::diffSimStats(ref, on, "reference", "cache-on");
        EXPECT_TRUE(dOn.empty()) << name << "\n" << dOn;
        const std::string dOff =
            obs::diffSimStats(ref, off, "reference", "cache-off");
        EXPECT_TRUE(dOff.empty()) << name << "\n" << dOff;

        // Per-loop counter vectors, element-wise through the
        // full-field operator==.
        ASSERT_EQ(ref.loops.size(), on.loops.size()) << name;
        for (std::size_t i = 0; i < ref.loops.size(); ++i)
            EXPECT_TRUE(ref.loops[i] == on.loops[i])
                << name << " loop[" << i << "] ("
                << ref.loops[i].name << ")";
    }
}

TEST(TraceCache, PerLoopReplayNeverExceedsBufferedOps)
{
    for (const auto &w : workloads::allWorkloads()) {
        Program prog = workloads::buildWorkload(w.name);
        CompileOptions opts;
        opts.level = OptLevel::Aggressive;
        opts.bufferOps = 256;
        CompileResult cr;
        compileProgram(prog, opts, cr);

        VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                       TraceCacheMode::On));
        const SimStats st = sim.run();
        const TraceCacheStats &tc = statsOf(sim);
        ASSERT_EQ(tc.perLoop.size(), st.loops.size()) << w.name;
        std::uint64_t perLoopOps = 0;
        std::uint64_t perLoopBailouts = 0;
        for (std::size_t i = 0; i < st.loops.size(); ++i) {
            EXPECT_LE(tc.perLoop[i].ops, st.loops[i].opsFromBuffer)
                << w.name << " loop " << st.loops[i].name;
            perLoopOps += tc.perLoop[i].ops;
            perLoopBailouts += tc.perLoop[i].bailouts;
        }
        EXPECT_EQ(perLoopOps, tc.replayedOps) << w.name;
        EXPECT_LE(tc.replayedOps, st.opsFromBuffer) << w.name;

        // The bailout attributions integrate back to the headline
        // counter on both axes — per reason and per loop — and the
        // defensive Unknown bucket stays empty on every workload.
        std::uint64_t byReason = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(TraceBailoutReason::Count);
             ++i)
            byReason += tc.bailoutsBy[i];
        EXPECT_EQ(byReason, tc.bailouts) << w.name;
        EXPECT_EQ(perLoopBailouts, tc.bailouts) << w.name;
        EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                      TraceBailoutReason::Unknown)],
                  0u)
            << w.name;
    }
}

TEST(TraceCache, DisabledModesPublishNoStats)
{
    Program prog = countedLoopProgram(50);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.traceCache = TraceCacheMode::Off;
    VliwSim off(cr.code, sc);
    off.run();
    EXPECT_EQ(off.traceCacheStats(), nullptr);

    sc.traceCache = TraceCacheMode::Auto;
    sc.engine = SimEngine::REFERENCE;
    VliwSim refSim(cr.code, sc);
    refSim.run();
    EXPECT_EQ(refSim.traceCacheStats(), nullptr);
}

} // namespace
} // namespace lbp
