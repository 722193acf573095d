/**
 * @file
 * Inliner tests: single-site correctness, parameter/return wiring,
 * recursion rejection, budget enforcement, and hot-site priority.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/interpreter.hh"
#include "ir/verifier.hh"
#include "ir/decoded_interpreter.hh"
#include "transform/inliner.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

Program
makeCallerCallee(int calleeExtraOps)
{
    Program prog;
    const FuncId callee = prog.newFunction("callee");
    {
        Function &fn = prog.functions[callee];
        const RegId x = fn.newReg();
        const RegId y = fn.newReg();
        fn.params = {x, y};
        fn.numReturns = 1;
        IRBuilder b(prog, callee);
        RegId acc = b.add(R(x), R(y));
        for (int i = 0; i < calleeExtraOps; ++i)
            acc = b.add(R(acc), I(1));
        b.ret({R(acc)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    const RegId total = b.iconst(0);
    b.forLoop(0, 10, 1, [&](RegId i) {
        auto r = b.call(callee, {R(i), I(5)}, 1);
        b.addTo(total, R(total), R(r[0]));
    });
    b.ret({R(total)});
    return prog;
}

TEST(Inliner, SingleSiteSemanticsPreserved)
{
    Program prog = makeCallerCallee(3);
    Interpreter pre(prog);
    const auto before = pre.run();

    profileProgram(prog);
    auto st = inlineHotCalls(prog);
    EXPECT_EQ(st.sitesInlined, 1);
    verifyOrDie(prog);

    Interpreter post(prog);
    const auto after = post.run();
    EXPECT_EQ(before.returns, after.returns);
    // No CALL remains in main's loop.
    bool anyCall = false;
    for (const auto &bb : prog.functions[prog.entryFunc].blocks)
        for (const auto &op : bb.ops)
            anyCall |= op.op == Opcode::CALL;
    EXPECT_FALSE(anyCall);
}

TEST(Inliner, RecursionRejected)
{
    Program prog;
    const FuncId f = prog.newFunction("rec");
    {
        Function &fn = prog.functions[f];
        const RegId x = fn.newReg();
        fn.params = {x};
        fn.numReturns = 1;
        IRBuilder b(prog, f);
        const BlockId base = b.makeBlock();
        const BlockId step = b.makeBlock();
        b.br(CmpCond::LE, R(x), I(0), base);
        b.fallTo(step);
        b.at(step);
        const RegId xm1 = b.sub(R(x), I(1));
        auto r = b.call(f, {R(xm1)}, 1);
        const RegId s = b.add(R(r[0]), R(x));
        b.ret({R(s)});
        b.at(base);
        b.ret({I(0)});
    }
    // Locate the recursive call site and confirm rejection.
    bool found = false;
    for (const auto &bb : prog.functions[f].blocks) {
        for (size_t i = 0; i < bb.ops.size(); ++i) {
            if (bb.ops[i].op == Opcode::CALL) {
                found = true;
                EXPECT_FALSE(inlineCallSite(prog, f, bb.id, i));
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(Inliner, NoInlineRespected)
{
    Program prog = makeCallerCallee(0);
    prog.functions[0].noInline = true;
    profileProgram(prog);
    auto st = inlineHotCalls(prog);
    EXPECT_EQ(st.sitesInlined, 0);
}

TEST(Inliner, BudgetEnforced)
{
    Program prog = makeCallerCallee(100);
    profileProgram(prog);
    InlineOptions opts;
    opts.maxExpansion = 0.1; // ~12 ops budget < 100-op callee
    auto st = inlineHotCalls(prog, opts);
    EXPECT_EQ(st.sitesInlined, 0);
}

TEST(Inliner, HotterSiteWins)
{
    // Two callees; the budget admits only one inline; the hot loop's
    // site must win.
    Program prog;
    FuncId small[2];
    for (int k = 0; k < 2; ++k) {
        small[k] = prog.newFunction(k == 0 ? "g0" : "g1");
        Function &fn = prog.functions[small[k]];
        const RegId x = fn.newReg();
        fn.params = {x};
        fn.numReturns = 1;
        IRBuilder b(prog, small[k]);
        RegId acc = b.add(R(x), I(k));
        for (int i = 0; i < 12; ++i)
            acc = b.add(R(acc), I(i));
        b.ret({R(acc)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    const RegId total = b.iconst(0);
    b.forLoop(0, 100, 1, [&](RegId i) { // hot
        auto r = b.call(small[0], {R(i)}, 1);
        b.addTo(total, R(total), R(r[0]));
    });
    b.forLoop(0, 2, 1, [&](RegId i) { // cold
        auto r = b.call(small[1], {R(i)}, 1);
        b.addTo(total, R(total), R(r[0]));
    });
    b.ret({R(total)});

    Interpreter pre(prog);
    const auto before = pre.run();
    profileProgram(prog);
    InlineOptions opts;
    opts.maxExpansion = 0.35; // admits one ~14-op callee only
    auto st = inlineHotCalls(prog, opts);
    EXPECT_EQ(st.sitesInlined, 1);
    // The hot callee must be gone from the hot loop.
    int calls0 = 0, calls1 = 0;
    for (const auto &bb : prog.functions[mainF].blocks) {
        for (const auto &op : bb.ops) {
            if (op.op == Opcode::CALL) {
                if (op.callee == small[0])
                    ++calls0;
                if (op.callee == small[1])
                    ++calls1;
            }
        }
    }
    EXPECT_EQ(calls0, 0);
    EXPECT_EQ(calls1, 1);
    Interpreter post(prog);
    EXPECT_EQ(post.run().returns, before.returns);
}

TEST(Inliner, MultipleReturnsHandled)
{
    Program prog;
    const FuncId callee = prog.newFunction("minmax");
    {
        Function &fn = prog.functions[callee];
        const RegId x = fn.newReg();
        const RegId y = fn.newReg();
        fn.params = {x, y};
        fn.numReturns = 2;
        IRBuilder b(prog, callee);
        const RegId lo = b.min(R(x), R(y));
        const RegId hi = b.max(R(x), R(y));
        b.ret({R(lo), R(hi)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    const RegId total = b.iconst(0);
    b.forLoop(0, 5, 1, [&](RegId i) {
        auto r = b.call(callee, {R(i), I(3)}, 2);
        const RegId d = b.sub(R(r[1]), R(r[0]));
        b.addTo(total, R(total), R(d));
    });
    b.ret({R(total)});
    Interpreter pre(prog);
    const auto before = pre.run();
    profileProgram(prog);
    inlineHotCalls(prog);
    verifyOrDie(prog);
    Interpreter post(prog);
    EXPECT_EQ(post.run().returns, before.returns);
}

} // namespace
} // namespace lbp
