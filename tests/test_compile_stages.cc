/**
 * @file
 * Stage golden: pins the output of every compile-pipeline stage on
 * all eleven workloads at both optimization levels.
 *
 * The test walks the same stage sequence compileProgram runs and
 * records an FNV-1a digest of writeText(prog) after each stage, then
 * a digest of the scheduled code (every bundle's ops with their
 * slots, plus each block's ii, minII and mveFactor) and the
 * scheduledOps count. Its final IR and schedule must equal what
 * compileProgram itself produces, so the walk cannot drift from the
 * pipeline unnoticed. The digests are compared with
 * tests/golden/compile_stages.txt: a change to an analysis or a
 * scheduler data structure that is meant to be output-preserving must
 * leave every line unchanged.
 *
 * On a mismatch the test writes the lines it computed to
 * compile_stages_<workload>.actual.txt in its working directory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/compiler.hh"
#include "core/stage_verifier.hh"
#include "ir/interpreter.hh"
#include "ir/printer.hh"
#include "ir/serialize.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "transform/classic_opts.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
digest(const std::string &s)
{
    return hex64(fnv1a(reinterpret_cast<const std::uint8_t *>(s.data()),
                       s.size()));
}

/** Every bundle's ops and slots, and each block's loop metadata. */
std::string
schedText(const SchedProgram &code)
{
    std::ostringstream os;
    for (const auto &sf : code.functions) {
        const Function &fn = code.ir->functions[sf.func];
        for (const auto &sb : sf.blocks) {
            if (!sb.valid)
                continue;
            os << fn.name << "/" << sb.irBlock << " ii=" << sb.ii
               << " minII=" << sb.minII << " mve=" << sb.mveFactor
               << "\n";
            for (const auto &bu : sb.bundles) {
                os << " {";
                for (const auto &so : bu.ops)
                    os << " " << so.slot << ":" << toString(so.op, &fn)
                       << ";";
                os << " }\n";
            }
        }
    }
    return os.str();
}

/** The scheduler's simple-loop-body test (core/compiler.cc). */
bool
isSimpleLoopBody(const BasicBlock &bb)
{
    const Operation *term = bb.terminator();
    if (!term)
        return false;
    return (term->op == Opcode::BR_CLOOP || term->op == Opcode::BR_WLOOP ||
            term->op == Opcode::BR || term->op == Opcode::JUMP) &&
           term->target == bb.id;
}

/**
 * Run @p input through compileProgram's stage sequence at @p level
 * (default options otherwise) and return one golden line per stage:
 * "<workload> <level> <stage> <digest>", then the schedule digest
 * and scheduledOps.
 */
std::string
stageLines(const std::string &name, const Program &input, OptLevel level)
{
    const std::string tag =
        name + (level == OptLevel::Aggressive ? " aggressive "
                                              : " traditional ");
    std::ostringstream os;
    Program prog = input;
    auto stage = [&](const char *st) {
        os << tag << st << " " << digest(writeText(prog)) << "\n";
    };
    obs::LoopDecisionLog log;

    StageVerifier verifier(prog, {}, /*enabled=*/false);
    stage("01_profile");
    inlineHotCalls(prog);
    stage("02_inline");
    optimizeProgram(prog);
    reassociate(prog);
    optimizeProgram(prog);
    stage("03_classic_opts");
    if (level == OptLevel::Aggressive) {
        peelLoops(prog, {}, &log);
        stage("04_peel");
        ifConvertLoops(prog, {}, &log);
        stage("05_if_convert");
        collapseLoops(prog, {}, &log);
        stage("06_collapse");
        ifConvertLoops(prog, {}, &log);
        stage("07_if_convert2");
        combineBranches(prog, {}, &log);
        stage("08_branch_combine");
        promoteOperations(prog);
        stage("09_promote");
        optimizeProgram(prog);
        reassociate(prog);
        optimizeProgram(prog);
        stage("10_classic_opts2");
    }
    convertCountedLoops(prog);
    stage("11_counted_loop");
    verifier.reprofile(prog, "counted-loop");
    stage("12_reprofile");

    const Machine machine;
    SchedProgram code;
    code.ir = &prog;
    code.functions.resize(prog.functions.size());
    for (const auto &fn : prog.functions) {
        SchedFunction &sf = code.functions[fn.id];
        sf.func = fn.id;
        sf.blocks.resize(fn.blocks.size());
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            const bool loopBody = isSimpleLoopBody(bb);
            SchedBlock sb;
            if (loopBody)
                sb = moduloScheduleLoop(bb, machine);
            if (!loopBody || !sb.valid)
                sb = listScheduleBlock(bb, machine);
            sb.isLoopBody = loopBody;
            sf.blocks[bb.id] = std::move(sb);
        }
    }
    stage("13_schedule");
    if (level == OptLevel::Aggressive) {
        lowerProgramToSlots(prog, code, machine, 0, &log);
        stage("14_slot_lowering");
    }
    allocateLoopBuffers(prog, code, {}, &log);
    code.link();
    stage("15_buffer_alloc");

    const std::string sched = schedText(code);
    os << tag << "sched " << digest(sched) << "\n";
    os << tag << "scheduledOps " << code.sizeOps() << "\n";

    // The walk must be compileProgram's pipeline.
    CompileOptions opts;
    opts.level = level;
    CompileResult cr;
    compileProgram(input, opts, cr);
    EXPECT_EQ(writeText(cr.ir), writeText(prog)) << tag;
    EXPECT_EQ(schedText(cr.code), sched) << tag;
    EXPECT_EQ(cr.scheduledOps, code.sizeOps()) << tag;
    return os.str();
}

class CompileStages : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CompileStages, EveryStageMatchesGolden)
{
    const std::string name = GetParam();
    const Program prog = workloads::buildWorkload(name);
    const std::string actual =
        stageLines(name, prog, OptLevel::Traditional) +
        stageLines(name, prog, OptLevel::Aggressive);

    std::ifstream in(std::string(LBP_GOLDEN_DIR) + "/compile_stages.txt");
    ASSERT_TRUE(in.good()) << "missing golden";
    std::string expected, line;
    while (std::getline(in, line))
        if (line.compare(0, name.size() + 1, name + " ") == 0)
            expected += line + "\n";
    if (actual != expected) {
        const std::string out = "compile_stages_" + name + ".actual.txt";
        std::ofstream(out) << actual;
        ADD_FAILURE() << "stage digests differ from the golden; the "
                         "computed lines are in "
                      << out;
    }
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> v;
    for (const auto &w : workloads::allWorkloads())
        v.push_back(w.name);
    return v;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CompileStages,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace lbp
