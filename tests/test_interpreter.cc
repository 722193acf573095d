/**
 * @file
 * Interpreter tests: ALU semantics (including two's-complement
 * overflow), memory, guards, the full Table-2 predicate-define truth
 * table (exhaustive and parameterized), hardware-loop contexts, calls,
 * and speculative load semantics. Every case runs on both the
 * tree-walking reference and the decoded interpreter, which must
 * agree on every result field.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "interp_check.hh"
#include "ir/builder.hh"

namespace lbp
{
namespace
{

/** Run a single-function program and return its first return value. */
std::int64_t
runReturn(Program &prog)
{
    const auto r = runBothInterpreters(prog);
    EXPECT_FALSE(r.returns.empty());
    return r.returns.empty() ? 0 : r.returns[0];
}

TEST(Interp, AluBasics)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId a = b.add(I(40), I(2));
    const RegId m = b.mul(Operand::reg(a), I(-3));
    const RegId s = b.shra(Operand::reg(m), I(1));
    b.ret({Operand::reg(s)});
    EXPECT_EQ(runReturn(prog), -63);
}

TEST(Interp, SaturatingArithmetic)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId x = b.satadd(I(30000), I(10000));
    const RegId y = b.satsub(I(-30000), I(10000));
    const RegId sum = b.add(Operand::reg(x), Operand::reg(y));
    b.ret({Operand::reg(sum)});
    EXPECT_EQ(runReturn(prog), 32767 - 32768);
}

TEST(Interp, MemoryByteHalfWord)
{
    Program prog;
    const auto base = prog.allocData(16);
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId p = b.iconst(base);
    b.storeW(Operand::reg(p), I(0), I(-2));
    const RegId w = b.loadW(Operand::reg(p), I(0));
    const RegId h = b.loadH(Operand::reg(p), I(0));
    const RegId by = b.loadB(Operand::reg(p), I(0));
    const RegId s1 = b.add(Operand::reg(w), Operand::reg(h));
    const RegId s2 = b.add(Operand::reg(s1), Operand::reg(by));
    b.ret({Operand::reg(s2)});
    EXPECT_EQ(runReturn(prog), -2 + -2 + -2);
}

TEST(Interp, GuardNullifies)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId x = b.iconst(10);
    const PredId p = b.newPred();
    b.predDef(PredDefKind::UT, p, CmpCond::FALSE_, I(0), I(0));
    Operation guarded = makeUnary(Opcode::MOV, x, I(99));
    guarded.guard = p;
    b.emit(guarded);
    b.ret({Operand::reg(x)});
    const auto r = runBothInterpreters(prog);
    EXPECT_EQ(r.returns[0], 10);
    EXPECT_EQ(r.dynNullified, 1u);
}

// ---- Table 2: exhaustive truth-table check ----
// For each define kind and each (guard, cond) combination, the
// destination must match the paper's table, including "no update".
// gtest prints a parameter without a PrintTo as its raw bytes, and the
// test names come from that print, so the struct has no implicit
// padding: `reserved` fills the byte before `expect` with a fixed zero.
struct Table2Case
{
    PredDefKind kind;
    bool guard;
    bool cond;
    std::uint8_t reserved;
    int expect; // -1 = no update (stays at sentinel)
};
static_assert(sizeof(Table2Case) == 8,
              "Table2Case must have no padding bytes");

class Table2Test : public ::testing::TestWithParam<Table2Case>
{
};

TEST_P(Table2Test, Semantics)
{
    const Table2Case tc = GetParam();
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };

    const PredId guard = b.newPred();
    const PredId dst = b.newPred();
    const PredId probeSentinel = b.newPred();

    // Set up guard value.
    b.predDef(PredDefKind::UT, guard,
              tc.guard ? CmpCond::TRUE_ : CmpCond::FALSE_, I(0), I(0));
    // Seed destination with a sentinel that survives "no update":
    // set dst = 1 via an unguarded define, so a 0-write is visible,
    // and track whether an update happened via value changes from
    // both sentinel polarities.
    // Sentinel A: dst starts at 1.
    b.predDef(PredDefKind::UT, dst, CmpCond::TRUE_, I(0), I(0));
    Operation d1 = makePredDef(tc.kind, dst, PredDefKind::NONE, 0,
                               tc.cond ? CmpCond::TRUE_
                                       : CmpCond::FALSE_,
                               I(0), I(0));
    d1.guard = guard;
    b.emit(d1);
    const RegId after1 = b.mov(Operand::pred(dst));

    // Sentinel B: dst starts at 0.
    b.predDef(PredDefKind::UT, dst, CmpCond::FALSE_, I(0), I(0));
    Operation d2 = makePredDef(tc.kind, dst, PredDefKind::NONE, 0,
                               tc.cond ? CmpCond::TRUE_
                                       : CmpCond::FALSE_,
                               I(0), I(0));
    d2.guard = guard;
    b.emit(d2);
    const RegId after0 = b.mov(Operand::pred(dst));
    (void)probeSentinel;

    // ret two observations.
    b.ret({Operand::reg(after1), Operand::reg(after0)});
    const auto r = runBothInterpreters(prog);
    ASSERT_EQ(r.returns.size(), 2u);
    if (tc.expect < 0) {
        // No update: both sentinels survive.
        EXPECT_EQ(r.returns[0], 1);
        EXPECT_EQ(r.returns[1], 0);
    } else {
        EXPECT_EQ(r.returns[0], tc.expect);
        EXPECT_EQ(r.returns[1], tc.expect);
    }
}

std::vector<Table2Case>
table2Cases()
{
    using K = PredDefKind;
    std::vector<Table2Case> cases;
    // Row order: (guard, cond) in {(0,0),(0,1),(1,0),(1,1)} per the
    // paper's Table 2.
    struct Row { K k; int v[4]; };
    const Row rows[] = {
        {K::UT, {0, 0, 0, 1}},
        {K::UF, {0, 0, 1, 0}},
        {K::OT, {-1, -1, -1, 1}},
        {K::OF, {-1, -1, 1, -1}},
        {K::AT, {-1, -1, 0, -1}},
        {K::AF, {-1, -1, -1, 0}},
        {K::CT, {-1, -1, 0, 1}},
        {K::CF, {-1, -1, 1, 0}},
    };
    for (const Row &row : rows) {
        int i = 0;
        for (bool g : {false, true}) {
            for (bool c : {false, true}) {
                cases.push_back({row.k, g, c, 0, row.v[i]});
                ++i;
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Table2Test,
                         ::testing::ValuesIn(table2Cases()));

TEST(Interp, OrTypeAccumulates)
{
    // p = (x > 3) || (x < 0), computed IMPACT-style.
    for (std::int64_t x : {-2, 0, 2, 5}) {
        Program prog;
        const FuncId f = prog.newFunction("main");
        prog.entryFunc = f;
        IRBuilder b(prog, f);
        auto I = [](std::int64_t v) { return Operand::imm(v); };
        const PredId p = b.newPred();
        b.predDef(PredDefKind::UT, p, CmpCond::GT, I(x), I(3));
        b.predDef(PredDefKind::OT, p, CmpCond::LT, I(x), I(0));
        b.ret({Operand::pred(p)});
        const bool expect = x > 3 || x < 0;
        EXPECT_EQ(runReturn(prog), expect ? 1 : 0) << "x=" << x;
    }
}

TEST(Interp, CountedLoopContext)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId acc = b.iconst(0);

    const BlockId body = b.makeBlock("body");
    Operation rec;
    rec.op = Opcode::REC_CLOOP;
    rec.srcs = {I(7)};
    rec.target = body;
    b.emit(std::move(rec));
    b.fallTo(body);
    b.at(body);
    b.addTo(acc, Operand::reg(acc), I(3));
    Operation back;
    back.op = Opcode::BR_CLOOP;
    back.target = body;
    b.emit(std::move(back));
    const BlockId after = b.makeBlock();
    b.fallTo(after);
    b.at(after);
    b.ret({Operand::reg(acc)});
    EXPECT_EQ(runReturn(prog), 21);
}

TEST(Interp, ExecCloopReusesBufferedLoop)
{
    // A loop body recorded once and re-entered via EXEC_CLOOP from a
    // different location, procedure-call style (section 5).
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId acc = b.iconst(0);

    const BlockId body = b.makeBlock("body");
    const BlockId cont = b.makeBlock("cont");
    const BlockId tail = b.makeBlock("tail");
    Operation rec;
    rec.op = Opcode::REC_CLOOP;
    rec.srcs = {I(4)};
    rec.target = body;
    b.emit(std::move(rec));
    b.fallTo(body);
    b.at(body);
    b.addTo(acc, Operand::reg(acc), I(5));
    Operation back;
    back.op = Opcode::BR_CLOOP;
    back.target = body;
    b.emit(std::move(back));
    b.fallTo(cont);
    b.at(cont);
    // Execute the same loop again, 3 more times, from here.
    Operation ex;
    ex.op = Opcode::EXEC_CLOOP;
    ex.srcs = {I(3)};
    ex.target = body;
    b.emit(std::move(ex));
    b.fallTo(tail);
    b.at(tail);
    b.ret({Operand::reg(acc)});
    EXPECT_EQ(runReturn(prog), 5 * 7);
}

TEST(Interp, CallsAndReturns)
{
    Program prog;
    const FuncId callee = prog.newFunction("sq");
    {
        Function &fn = prog.functions[callee];
        const RegId x = fn.newReg();
        fn.params = {x};
        fn.numReturns = 1;
        IRBuilder b(prog, callee);
        const RegId r = b.mul(Operand::reg(x), Operand::reg(x));
        b.ret({Operand::reg(r)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    auto rets = b.call(callee, {Operand::imm(9)}, 1);
    b.ret({Operand::reg(rets[0])});
    EXPECT_EQ(runReturn(prog), 81);
}

TEST(Interp, SpeculativeLoadReturnsZeroOutOfRange)
{
    Program prog;
    prog.allocData(8);
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    Operation ld = makeLoad(Opcode::LD_W, prog.functions[f].newReg(),
                            Operand::imm(1 << 20), Operand::imm(0));
    ld.speculative = true;
    const RegId dst = ld.dsts[0].asReg();
    b.emit(std::move(ld));
    b.ret({Operand::reg(dst)});
    EXPECT_EQ(runReturn(prog), 0);
}

TEST(Interp, ChecksumCoversOutputRegion)
{
    Program prog;
    const auto base = prog.allocData(8);
    prog.checksumBase = base;
    prog.checksumSize = 4;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId p = b.iconst(base);
    b.storeW(Operand::reg(p), Operand::imm(0), Operand::imm(77));
    b.ret({});
    const auto r1 = runBothInterpreters(prog);
    // Different stored value => different checksum.
    Program prog2 = prog;
    prog2.functions[f].blocks[prog2.functions[f].entry]
        .ops[1].srcs[2] = Operand::imm(78);
    const auto r2 = runBothInterpreters(prog2);
    EXPECT_NE(r1.checksum, r2.checksum);
}

TEST(Interp, OpBudgetGuard)
{
    // An infinite loop must hit the budget assertion (death test via
    // panic/abort is environment-dependent; we use a small budget and
    // EXPECT_DEATH).
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const BlockId loop = b.makeBlock();
    b.fallTo(loop);
    b.at(loop);
    b.jump(loop);
    Interpreter interp(prog);
    interp.setMaxOps(1000);
    EXPECT_DEATH(interp.run(), "budget");
    DecodedInterpreter decoded(prog);
    decoded.setMaxOps(1000);
    EXPECT_DEATH(decoded.run(), "budget");
}

TEST(Interp, OverflowWrapsTwosComplement)
{
    // Operands arrive as arguments so nothing folds them.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    Program prog;
    const auto out = prog.allocData(8);
    prog.checksumBase = out;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    Function &fn = prog.functions[f];
    const RegId lo = fn.newReg(), hi = fn.newReg(), m1 = fn.newReg();
    const RegId nan = fn.newReg(), big = fn.newReg();
    fn.params = {lo, hi, m1, nan, big};
    IRBuilder b(prog, f);
    auto R = [](RegId r) { return Operand::reg(r); };
    auto ftoi = [&](RegId a) {
        const RegId d = fn.newReg();
        b.emit(makeUnary(Opcode::FTOI, d, R(a)));
        return d;
    };
    std::vector<Operand> rets;
    auto keep = [&](RegId r) { rets.push_back(R(r)); };
    keep(b.div(R(lo), R(m1)));
    keep(b.rem(R(lo), R(m1)));
    keep(b.abs(R(lo)));
    keep(b.add(R(hi), Operand::imm(1)));
    keep(b.sub(R(lo), Operand::imm(1)));
    keep(b.mul(R(hi), Operand::imm(2)));
    keep(b.satadd(R(hi), R(hi)));
    keep(b.satsub(R(lo), R(hi)));
    keep(ftoi(nan));
    keep(ftoi(big));
    b.storeW(Operand::imm(out), Operand::imm(0), rets[0]);
    b.ret(rets);

    auto bits = [](double d) {
        std::int64_t v;
        std::memcpy(&v, &d, sizeof(v));
        return v;
    };
    const auto r = runBothInterpreters(
        prog, {kMin, kMax, -1, bits(std::nan("")), bits(1e300)});
    const std::vector<std::int64_t> expect = {
        kMin, 0, kMin, kMin, kMax, -2,
        // SATADD/SATSUB saturate the wrapped sum: kMax + kMax = -2,
        // kMin - kMax = 1.
        -2, 1, kMin, kMin};
    EXPECT_EQ(r.returns, expect);
}

/** Both interpreters must die on @p prog with a message matching @p re. */
void
expectBothDie(const Program &prog, const char *re)
{
    Interpreter interp(prog);
    EXPECT_DEATH(interp.run(), re);
    DecodedInterpreter decoded(prog);
    EXPECT_DEATH(decoded.run(), re);
}

TEST(Interp, OutOfBoundsAccessFaults)
{
    for (bool store : {false, true}) {
        Program prog;
        prog.allocData(8);
        const FuncId f = prog.newFunction("main");
        prog.entryFunc = f;
        IRBuilder b(prog, f);
        if (store)
            b.storeW(Operand::imm(6), Operand::imm(0), Operand::imm(1));
        else
            b.loadW(Operand::imm(6), Operand::imm(0));
        b.ret({});
        expectBothDie(prog, "out of bounds");
    }
}

TEST(Interp, BadLoopCountFaults)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const BlockId body = b.makeBlock("body");
    Operation rec;
    rec.op = Opcode::REC_CLOOP;
    rec.srcs = {Operand::imm(0)};
    rec.target = body;
    b.emit(std::move(rec));
    b.fallTo(body);
    b.at(body);
    Operation back;
    back.op = Opcode::BR_CLOOP;
    back.target = body;
    b.emit(std::move(back));
    const BlockId after = b.makeBlock();
    b.fallTo(after);
    b.at(after);
    b.ret({});
    expectBothDie(prog, "rec_cloop with count 0");
}

TEST(Interp, CallDepthFaults)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    b.call(f, {}, 0);
    b.ret({});
    expectBothDie(prog, "call stack overflow");
}

TEST(Interp, DivisionByZeroFaults)
{
    for (Opcode op : {Opcode::DIV, Opcode::REM}) {
        Program prog;
        const FuncId f = prog.newFunction("main");
        prog.entryFunc = f;
        Function &fn = prog.functions[f];
        const RegId x = fn.newReg(), z = fn.newReg();
        fn.params = {x, z};
        IRBuilder b(prog, f);
        const RegId q = fn.newReg();
        b.emit(makeBinary(op, q, Operand::reg(x), Operand::reg(z)));
        b.ret({Operand::reg(q)});
        Interpreter interp(prog);
        EXPECT_DEATH(interp.run({7, 0}), "by zero");
        DecodedInterpreter decoded(prog);
        EXPECT_DEATH(decoded.run({7, 0}), "by zero");
    }
}

} // namespace
} // namespace lbp
