/**
 * @file
 * StageVerifier tests: a stage whose decoded image equals the last
 * verified one is skipped, any change execution can see is
 * re-interpreted, and a miscompile fails naming its stage — including
 * the counted-loop stage, whose check is the final profile run.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/compiler.hh"
#include "core/stage_verifier.hh"
#include "ir/builder.hh"
#include "obs/registry.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/**
 * A loop summing a table into an output word. The table sits outside
 * the checksummed output, and the loop's load is the entry function's
 * only LD_W.
 */
Program
sumProgram()
{
    Program prog;
    prog.name = "sum";
    const auto out = prog.allocData(8);
    const auto table = prog.allocData(64);
    for (int i = 0; i < 16; ++i)
        prog.poke32(table + 4 * i, 3 * i + 1);
    prog.checksumBase = out;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId acc = b.iconst(0);
    b.forLoop(0, 16, 1, [&](RegId i) {
        const RegId off = b.shl(R(i), I(2));
        const RegId v = b.loadW(I(table), R(off));
        b.addTo(acc, R(acc), R(v));
    });
    b.storeW(I(out), I(0), R(acc));
    b.ret({R(acc)});
    return prog;
}

/** The entry function's LD_W. */
Operation &
theLoad(Program &prog)
{
    for (auto &bb : prog.functions[prog.entryFunc].blocks)
        for (auto &op : bb.ops)
            if (op.op == Opcode::LD_W)
                return op;
    throw std::logic_error("no load");
}

/** Check @p prog and return the fatal message ("" when it passed). */
std::string
checkMessage(StageVerifier &v, const Program &prog, const char *stage)
{
    try {
        v.check(prog, stage);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(StageVerifier, UnchangedProgramIsSkipped)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    v.check(prog, "noop");
    EXPECT_EQ(v.skipped(), 1u);
    EXPECT_EQ(v.runs(), 0u);
}

TEST(StageVerifier, ProfileAnnotatesBlockWeights)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    double maxWeight = 0;
    for (const auto &bb : prog.functions[prog.entryFunc].blocks)
        maxWeight = std::max(maxWeight, bb.weight);
    EXPECT_EQ(maxWeight, 16.0);
}

TEST(StageVerifier, WeightOnlyChangeIsSkipped)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    for (auto &bb : prog.functions[prog.entryFunc].blocks)
        bb.weight = bb.weight * 3 + 7;
    EXPECT_EQ(checkMessage(v, prog, "reweight"), "");
    EXPECT_EQ(v.skipped(), 1u);
    EXPECT_EQ(v.runs(), 0u);
}

TEST(StageVerifier, ChangedImmediateFailsNamingTheStage)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    // The loop's trip bound: 16 -> 15 changes the stored sum.
    bool changed = false;
    for (auto &bb : prog.functions[prog.entryFunc].blocks)
        for (auto &op : bb.ops)
            if (op.op == Opcode::BR && op.srcs[1] == I(16)) {
                op.srcs[1] = I(15);
                changed = true;
            }
    ASSERT_TRUE(changed);
    const std::string msg = checkMessage(v, prog, "bad-stage");
    EXPECT_NE(msg.find("semantic checksum mismatch after stage "
                       "'bad-stage'"),
              std::string::npos)
        << msg;
    EXPECT_EQ(v.runs(), 0u);
}

TEST(StageVerifier, SpeculativeFlagIsReinterpreted)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    theLoad(prog).speculative = true;
    EXPECT_EQ(checkMessage(v, prog, "spec"), "");
    EXPECT_EQ(v.runs(), 1u);
    EXPECT_EQ(v.skipped(), 0u);
    // The verified image is now the speculative one.
    v.check(prog, "again");
    EXPECT_EQ(v.skipped(), 1u);
}

TEST(StageVerifier, MemoryImageChangeIsReinterpreted)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    // Past the table: nothing reads it, so the checksum holds.
    prog.memory.push_back(0x5a);
    EXPECT_EQ(checkMessage(v, prog, "grow"), "");
    EXPECT_EQ(v.runs(), 1u);

    // A table entry the loop sums: the stored result changes.
    prog.poke32(8, 1000);
    EXPECT_NE(checkMessage(v, prog, "poke").find("'poke'"),
              std::string::npos);
}

TEST(StageVerifier, ChecksumRegionChangeIsReinterpreted)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, true);
    prog.checksumSize = 4;
    EXPECT_NE(checkMessage(v, prog, "region").find("'region'"),
              std::string::npos);
}

TEST(StageVerifier, DisabledChecksNothing)
{
    Program prog = sumProgram();
    StageVerifier v(prog, {}, false);
    prog.checksumSize = 4;
    EXPECT_EQ(checkMessage(v, prog, "off"), "");
    EXPECT_EQ(v.runs() + v.skipped(), 0u);
}

TEST(StageVerifier, ReprofileChecksTheNamedStage)
{
    Program prog = sumProgram();
    for (bool enabled : {true, false}) {
        Program p = prog;
        StageVerifier v(p, {}, enabled);
        EXPECT_EQ(v.reprofile(p, "counted-loop").checksum, v.golden());
        EXPECT_EQ(v.runs(), enabled ? 1u : 0u);
        // A final-profile mismatch is fatal even with checks off.
        p.checksumSize = 4;
        try {
            v.reprofile(p, "counted-loop");
            ADD_FAILURE() << "mismatch not reported";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'counted-loop'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(StageVerifier, PipelinePublishesEveryStageCheck)
{
    const Program prog = workloads::buildWorkload("adpcm_dec");
    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        obs::Registry reg;
        CompileOptions opts;
        opts.level = lvl;
        opts.obsRegistry = &reg;
        CompileResult cr;
        compileProgram(prog, opts, cr);
        // inline, classic-opts, counted-loop (+ 7 Aggressive stages).
        const std::uint64_t checks =
            lvl == OptLevel::Aggressive ? 10 : 3;
        EXPECT_EQ(reg.counter("compile.verify.runs").value() +
                      reg.counter("compile.verify.skipped").value(),
                  checks);
        const std::string *stages = reg.findInfo("compile.verify.stages");
        ASSERT_NE(stages, nullptr);
        EXPECT_NE(stages->find("counted-loop=run"), std::string::npos)
            << *stages;
    }
}

} // namespace
} // namespace lbp
