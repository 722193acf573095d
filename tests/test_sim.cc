/**
 * @file
 * VLIW simulator tests: fetch accounting, branch-penalty timing,
 * hardware-loop semantics (rec/exec, counted/while), pipelined-loop
 * timing corrections, and the two-phase bundle commit.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/compiler.hh"
#include "ir/interpreter.hh"
#include "ir/builder.hh"
#include "sim/vliw_sim.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** Straight counted-loop program. */
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

void
compileIt(Program &prog, CompileResult &cr, OptLevel lvl,
          int bufferOps)
{
    CompileOptions opts;
    opts.level = lvl;
    opts.bufferOps = bufferOps;
    compileProgram(prog, opts, cr);
}

TEST(Sim, MatchesInterpreterResults)
{
    Program prog = loopProgram(50, 6);
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);
    SimConfig sc;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    EXPECT_EQ(st.returns.size(), 1u);
    // Cross-check the return value against the reference interpreter.
    Interpreter interp(cr.ir);
    EXPECT_EQ(st.returns, interp.run().returns);
}

TEST(Sim, BufferedLoopFetchesFromBuffer)
{
    Program prog = loopProgram(100, 4);
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);
    SimConfig sc;
    sc.bufferOps = 256;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    // Recording iteration from memory; the other 99 from the buffer.
    EXPECT_GT(st.bufferFraction(), 0.9);
    ASSERT_EQ(st.activeLoops().size(), 1u);
    const LoopStats &ls = *st.activeLoops().front();
    EXPECT_EQ(ls.iterations, 100u);
    EXPECT_EQ(ls.recordings, 1u);
    EXPECT_EQ(ls.bufferIterations, 99u);
}

TEST(Sim, ZeroBufferFallsBackToMemory)
{
    Program prog = loopProgram(100, 4);
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 0);
    SimConfig sc;
    sc.bufferOps = 0;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.opsFromBuffer, 0u);
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
}

TEST(Sim, BufferedLoopBacksAreFree)
{
    // Same code, two buffer sizes: the buffered run must save the
    // per-iteration branch penalty.
    Program prog = loopProgram(200, 4);
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);

    SimConfig small;
    small.bufferOps = 0;
    VliwSim simSmall(cr.code, small);
    CompileResult cr0;
    Program prog0 = loopProgram(200, 4);
    compileIt(prog0, cr0, OptLevel::Traditional, 0);
    VliwSim simNone(cr0.code, small);
    const auto stNone = simNone.run();

    SimConfig big;
    big.bufferOps = 256;
    VliwSim simBig(cr.code, big);
    const auto stBig = simBig.run();

    EXPECT_LT(stBig.cycles, stNone.cycles);
    // Roughly: 199 loop-backs * penalty saved (pipelining may save
    // more).
    EXPECT_GE(stNone.cycles - stBig.cycles, 199u * 2);
}

TEST(Sim, PipelinedTimingUsesII)
{
    // A high-ILP loop: buffered cycles per iteration ~ II, far less
    // than the schedule length.
    Program prog;
    const auto data = prog.allocData(4096);
    prog.checksumBase = data;
    prog.checksumSize = 64;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    b.forLoop(0, 500, 1, [&](RegId i) {
        const RegId i4 = b.shl(R(b.and_(R(i), I(255))), I(2));
        const RegId v = b.loadW(R(dp), R(i4));
        const RegId m = b.mul(R(v), I(3));
        const RegId s = b.shra(R(m), I(1));
        const RegId t = b.add(R(s), R(i));
        b.storeW(R(dp), R(i4), R(t));
    });
    b.ret({});
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);

    // Locate the loop body schedule.
    int ii = 0, len = 0;
    for (const auto &sf : cr.code.functions) {
        for (const auto &sb : sf.blocks) {
            if (sb.valid && sb.isLoopBody && sb.pipelined) {
                ii = sb.ii;
                len = sb.lengthCycles();
            }
        }
    }
    ASSERT_GT(ii, 0);
    ASSERT_GT(len, ii);

    SimConfig sc;
    sc.bufferOps = 256;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    // Total cycles ~ 500*II + prologue-ish overhead, far below
    // 500*len.
    EXPECT_LT(st.cycles, static_cast<std::uint64_t>(500) * len);
    EXPECT_GE(st.cycles, static_cast<std::uint64_t>(499) * ii);
}

TEST(Sim, NullifiedOpsStillFetched)
{
    // Predication trades fetch for branches: nullified ops count as
    // fetched (that's the paper's "total fetch" increase).
    Program prog;
    const auto data = prog.allocData(256 * 4);
    for (int i = 0; i < 256; ++i)
        prog.poke32(data + 4 * i, i % 2 ? 1 : -1);
    prog.checksumBase = data;
    prog.checksumSize = 16;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    const PredId p = b.newPred();
    b.forLoop(0, 256, 1, [&](RegId i) {
        const RegId i4 = b.shl(R(i), I(2));
        const RegId v = b.loadW(R(dp), R(i4));
        b.predDef(PredDefKind::UT, p, CmpCond::GT, R(v), I(0));
        Operation g = makeBinary(Opcode::ADD, acc, R(acc), I(10));
        g.guard = p;
        b.emit(g);
    });
    b.storeW(R(dp), I(0), R(acc));
    b.ret({R(acc)});
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Aggressive, 256);
    SimConfig sc;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    EXPECT_GT(st.opsNullified, 100u); // half the guarded adds
    EXPECT_EQ(st.returns[0], 128 * 10);
}

TEST(Sim, WhileLoopExitPenalizedOnlyWhenBuffered)
{
    // A wloop executed from the buffer mispredicts its exit; from
    // memory the fall-through is free. We check relative cycles.
    Program prog;
    const auto data = prog.allocData(64);
    prog.poke32(data, 75);
    prog.checksumBase = data;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId x = b.loadW(R(dp), I(0));
    const RegId steps = b.iconst(0);
    const BlockId head = b.makeBlock();
    b.fallTo(head);
    b.at(head);
    b.movTo(x, R(b.shra(R(x), I(1))));
    b.addTo(steps, R(steps), I(1));
    b.br(CmpCond::GT, R(x), I(0), head);
    const BlockId done = b.makeBlock();
    b.fallTo(done);
    b.at(done);
    b.storeW(R(dp), I(0), R(steps));
    b.ret({R(steps)});
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);
    SimConfig sc;
    sc.bufferOps = 256;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    EXPECT_EQ(st.returns[0], 7); // 75 -> 37 -> ... -> 0
}

TEST(Sim, CallReturnRoundTrip)
{
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 8;
    const FuncId callee = prog.newFunction("twice");
    {
        Function &fn = prog.functions[callee];
        const RegId x = fn.newReg();
        fn.params = {x};
        fn.numReturns = 1;
        IRBuilder b(prog, callee);
        const RegId r = b.shl(R(x), I(1));
        b.ret({R(r)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    prog.functions[callee].noInline = true; // force a real call
    auto r = b.call(callee, {I(21)}, 1);
    const RegId dp = b.iconst(0);
    b.storeW(R(dp), I(0), R(r[0]));
    b.ret({R(r[0])});
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);
    SimConfig sc;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.returns[0], 42);
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
}

TEST(Sim, OverflowWrapsOnBothEngines)
{
    // Operands arrive as arguments so the compiler cannot fold them.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    Program prog;
    const auto data = prog.allocData(8);
    prog.checksumBase = data;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    Function &fn = prog.functions[f];
    const RegId lo = fn.newReg(), hi = fn.newReg(), m1 = fn.newReg();
    const RegId nan = fn.newReg();
    fn.params = {lo, hi, m1, nan};
    IRBuilder b(prog, f);
    const RegId toInt = fn.newReg();
    b.emit(makeUnary(Opcode::FTOI, toInt, R(nan)));
    const std::vector<Operand> rets = {
        R(b.div(R(lo), R(m1))),    R(b.rem(R(lo), R(m1))),
        R(b.abs(R(lo))),           R(b.add(R(hi), I(1))),
        R(b.sub(R(lo), I(1))),     R(b.mul(R(hi), I(2))),
        R(b.satadd(R(hi), R(hi))), R(toInt)};
    b.storeW(I(data), I(0), rets[0]);
    b.ret(rets);

    double qnan = std::numeric_limits<double>::quiet_NaN();
    std::int64_t nanBits;
    std::memcpy(&nanBits, &qnan, sizeof(nanBits));
    const std::vector<std::int64_t> args = {kMin, kMax, -1, nanBits};
    const std::vector<std::int64_t> expect = {kMin, 0,  kMin, kMin,
                                              kMax, -2, -2,   kMin};
    CompileOptions opts;
    opts.profileArgs = args;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    for (SimEngine engine : {SimEngine::REFERENCE, SimEngine::DECODED}) {
        SimConfig sc;
        sc.engine = engine;
        const auto st = VliwSim(cr.code, sc).run(args);
        EXPECT_EQ(st.returns, expect);
        EXPECT_EQ(st.checksum, cr.goldenChecksum);
    }
}

TEST(Sim, TwoPhaseBundleCommit)
{
    // A swap scheduled into one bundle must read both old values:
    // guaranteed by ANTI edges + read-before-write commit. We just
    // run a swap-heavy kernel and compare against the interpreter.
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 16;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    RegId a = b.iconst(3), c = b.iconst(17);
    b.forLoop(0, 9, 1, [&](RegId) {
        // Parallel-ish updates of a and c from each other.
        const RegId na = b.add(R(c), I(1));
        const RegId nc = b.sub(R(a), I(1));
        b.movTo(a, R(na));
        b.movTo(c, R(nc));
    });
    b.storeW(R(dp), I(0), R(a));
    b.storeW(R(dp), I(4), R(c));
    b.ret({});
    CompileResult cr;
    compileIt(prog, cr, OptLevel::Traditional, 256);
    SimConfig sc;
    VliwSim sim(cr.code, sc);
    EXPECT_EQ(sim.run().checksum, cr.goldenChecksum);
}

} // namespace
} // namespace lbp

namespace lbp
{
namespace
{

namespace cancel_detail
{

auto RR = [](RegId r) { return Operand::reg(r); };
auto II = [](std::int64_t v) { return Operand::imm(v); };

/**
 * A counted loop with a data-dependent break that fires mid-count:
 * the side exit must cancel the hardware-loop context (like real
 * zero-overhead-loop hardware), and a following loop must run
 * normally.
 */
Program
breakingLoop(int breakAt)
{
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 16;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    const RegId i = b.iconst(0);
    const BlockId head = b.makeBlock("head");
    const BlockId out = b.makeBlock("out");
    b.fallTo(head);
    b.at(head);
    b.addTo(acc, RR(acc), RR(i));
    b.br(CmpCond::GE, RR(i), II(breakAt), out); // break
    const BlockId cont = b.makeBlock();
    b.fallTo(cont);
    b.at(cont);
    b.addTo(i, RR(i), II(1));
    b.br(CmpCond::LT, RR(i), II(50), head);
    b.fallTo(out);
    b.at(out);
    // A second, well-behaved counted loop after the break target.
    const RegId j = b.iconst(0);
    const BlockId head2 = b.makeBlock("head2");
    b.fallTo(head2);
    b.at(head2);
    b.addTo(acc, RR(acc), II(1000));
    b.addTo(j, RR(j), II(1));
    b.br(CmpCond::LT, RR(j), II(3), head2);
    const BlockId done = b.makeBlock();
    b.fallTo(done);
    b.at(done);
    b.storeW(RR(dp), II(0), RR(acc));
    b.ret({RR(acc)});
    return prog;
}

} // namespace cancel_detail

class LoopCancelTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LoopCancelTest, SideExitCancelsHardwareLoop)
{
    using namespace cancel_detail;
    const int breakAt = GetParam();
    Program prog = breakingLoop(breakAt);
    Interpreter ref(prog);
    const auto golden = ref.run();

    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        CompileOptions opts;
        opts.level = lvl;
        CompileResult cr;
        // The interpreter re-checks per stage: a leaked loop context
        // would already break here.
        ASSERT_NO_THROW(compileProgram(prog, opts, cr));
        SimConfig sc;
        sc.bufferOps = 256;
        VliwSim sim(cr.code, sc);
        const auto st = sim.run();
        EXPECT_EQ(st.checksum, golden.checksum) << "breakAt=" << breakAt;
        EXPECT_EQ(st.returns, golden.returns);
    }
}

// breakAt < 50 exits via the break; breakAt >= 50 exhausts the count.
INSTANTIATE_TEST_SUITE_P(BreakPoints, LoopCancelTest,
                         ::testing::Values(0, 7, 49, 50, 99));

TEST(LoopCancel, NestedInnerBreakKeepsOuterContext)
{
    using namespace cancel_detail;
    // An outer counted loop wrapping a breaking inner loop: the
    // inner side exit must cancel only the inner context.
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 16;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    b.forLoop(0, 6, 1, [&](RegId o) {
        const RegId i = b.iconst(0);
        const BlockId head = b.makeBlock();
        const BlockId out = b.makeBlock();
        b.fallTo(head);
        b.at(head);
        b.addTo(acc, RR(acc), RR(i));
        b.br(CmpCond::GE, RR(i), RR(o), out); // break at o
        const BlockId cont = b.makeBlock();
        b.fallTo(cont);
        b.at(cont);
        b.addTo(i, RR(i), II(1));
        b.br(CmpCond::LT, RR(i), II(10), head);
        b.fallTo(out);
        b.at(out);
        b.addTo(acc, RR(acc), II(100));
    });
    b.storeW(RR(dp), II(0), RR(acc));
    b.ret({RR(acc)});

    Interpreter ref(prog);
    const auto golden = ref.run();
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    SimConfig sc;
    VliwSim sim(cr.code, sc);
    const auto st = sim.run();
    EXPECT_EQ(st.checksum, golden.checksum);
    EXPECT_EQ(st.returns, golden.returns);
}

} // namespace
} // namespace lbp
