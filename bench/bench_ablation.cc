/**
 * @file
 * Ablation studies over the design choices the paper motivates:
 *
 *  1. Per-transform contribution: buffer issue and cycles with each
 *     control transformation disabled in turn (peel / collapse /
 *     branch-combine / promotion / modulo scheduling / inlining).
 *  2. Branch-penalty sensitivity: the value of buffered loop-backs as
 *     the machine's taken-branch cost varies (paper: 3-5 cycles).
 *  3. Encoding cost (§4): per-operation bits of the three predication
 *     alternatives — full predication with an 8-entry predicate
 *     register file (3 guard bits), the paper's slot scheme (1
 *     sensitivity bit), and no predication — accumulated over the
 *     benchmark set's static code.
 */

#include <cstdio>

#include "bench_common.hh"

#include "support/logging.hh"
#include "transform/branch_combine.hh"
#include "transform/classic_opts.hh"
#include "transform/counted_loop.hh"
#include "transform/if_convert.hh"
#include "transform/loop_collapse.hh"
#include "transform/loop_peel.hh"
#include "transform/promote.hh"
#include "ir/verifier.hh"
#include "ir/decoded_interpreter.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "transform/inliner.hh"

using namespace lbp;
using namespace lbp::bench;

namespace
{

struct AblationKnobs
{
    bool inlineCalls = true;
    bool peel = true;
    bool collapse = true;
    bool ifConvert = true;
    bool branchCombine = true;
    bool promote = true;
    bool modulo = true;
};

/**
 * A hand-rolled variant of the aggressive pipeline with individual
 * transformations switchable (the production pipeline deliberately
 * exposes only the paper's two configurations).
 */
void
compileAblated(const Program &input, const AblationKnobs &k,
               CompileResult &out)
{
    out.ir = input;
    Program &prog = out.ir;
    verifyOrDie(prog);
    out.goldenChecksum = profileProgram(prog).checksum;
    if (k.inlineCalls)
        inlineHotCalls(prog);
    optimizeProgram(prog);
    if (k.peel)
        peelLoops(prog);
    if (k.ifConvert)
        ifConvertLoops(prog);
    if (k.collapse)
        collapseLoops(prog);
    if (k.ifConvert)
        ifConvertLoops(prog);
    if (k.branchCombine)
        combineBranches(prog);
    if (k.promote)
        promoteOperations(prog);
    optimizeProgram(prog);
    convertCountedLoops(prog);
    profileProgram(prog);

    out.code.ir = &prog;
    out.code.functions.resize(prog.functions.size());
    for (const auto &fn : prog.functions) {
        SchedFunction &sf = out.code.functions[fn.id];
        sf.func = fn.id;
        sf.blocks.resize(fn.blocks.size());
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            const Operation *term = bb.terminator();
            const bool loopBody =
                term && term->target == bb.id &&
                (term->op == Opcode::BR_CLOOP ||
                 term->op == Opcode::BR_WLOOP ||
                 term->op == Opcode::BR);
            SchedBlock sb;
            if (loopBody && k.modulo) {
                sb = moduloScheduleLoop(bb, out.machine);
                if (!sb.valid) {
                    sb = listScheduleBlock(bb, out.machine);
                    sb.isLoopBody = true;
                }
            } else {
                sb = listScheduleBlock(bb, out.machine);
                sb.isLoopBody = loopBody;
            }
            sf.blocks[bb.id] = std::move(sb);
        }
    }
    out.slotStats = lowerProgramToSlots(prog, out.code, out.machine);
    BufferAllocOptions ba;
    ba.bufferOps = 256;
    out.bufferAlloc = allocateLoopBuffers(prog, out.code, ba);
    out.code.link();
    out.scheduledOps = out.code.sizeOps();
}

struct AblationRow
{
    const char *name;
    double buf = 0;
    std::uint64_t cycles = 0;
};

AblationRow
runKnobs(const char *name, const AblationKnobs &k)
{
    AblationRow row;
    row.name = name;
    for (const auto &w : benchNames()) {
        Program prog = workloads::buildWorkload(w);
        CompileResult cr;
        compileAblated(prog, k, cr);
        SimConfig sc;
        sc.bufferOps = 256;
        VliwSim sim(cr.code, sc);
        const SimStats st = sim.run();
        LBP_ASSERT(st.checksum == cr.goldenChecksum,
                   "ablation checksum mismatch for ", w);
        row.buf += st.bufferFraction();
        row.cycles += st.cycles;
    }
    row.buf /= benchNames().size();
    return row;
}

void
encodingStudy()
{
    std::printf("\n=== Encoding cost (section 4): bits per operation "
                "===\n");
    std::printf("%-12s %10s %12s %14s %14s\n", "benchmark", "ops",
                "plain(32b)", "+guard(3b)", "+p-bit(1b)");
    rule();
    long long totalOps = 0;
    for (const auto &w : benchNames()) {
        auto &cr = compileBench(w, OptLevel::Aggressive);
        const long long ops = cr.scheduledOps;
        totalOps += ops;
        std::printf("%-12s %10lld %12lld %14lld %14lld\n", w.c_str(),
                    ops, ops * 32,
                    ops * (32 + Machine::guardFieldBits(8)),
                    ops * (32 + 1));
    }
    rule();
    std::printf("Full predication with 8 predicate registers costs "
                "%d extra bits per op\n(halving the addressable "
                "register space in a 3-operand format, section 4);\n"
                "the slot scheme costs 1 bit: %.1f%% vs %.1f%% "
                "encoding growth over %lld ops.\n",
                Machine::guardFieldBits(8),
                100.0 * Machine::guardFieldBits(8) / 32.0,
                100.0 * 1.0 / 32.0, totalOps);
}

} // namespace

int
main()
{
    std::printf("=== Ablation: per-transform contribution "
                "(256-op buffer, 11-benchmark means) ===\n\n");
    std::printf("%-18s %12s %14s\n", "configuration", "buffer-issue",
                "total-cycles");
    rule();

    const AblationKnobs all;
    const AblationRow base = runKnobs("full aggressive", all);
    auto report = [&](const AblationRow &r) {
        std::printf("%-18s %11.1f%% %14llu  (%+5.1f%% cycles)\n",
                    r.name, 100.0 * r.buf,
                    (unsigned long long)r.cycles,
                    100.0 * (static_cast<double>(r.cycles) /
                                 base.cycles -
                             1.0));
    };
    report(base);

    AblationKnobs k;
    k = all; k.ifConvert = false;
    report(runKnobs("- if-convert", k));
    k = all; k.peel = false;
    report(runKnobs("- peel", k));
    k = all; k.collapse = false;
    report(runKnobs("- collapse", k));
    k = all; k.branchCombine = false;
    report(runKnobs("- branch-combine", k));
    k = all; k.promote = false;
    report(runKnobs("- promote", k));
    k = all; k.modulo = false;
    report(runKnobs("- modulo-sched", k));
    k = all; k.inlineCalls = false;
    report(runKnobs("- inlining", k));

    std::printf("\n=== Branch-penalty sensitivity (aggressive, "
                "256-op buffer) ===\n");
    std::printf("%-10s %14s %14s\n", "penalty", "trad-cycles",
                "aggr-cycles");
    rule();
    for (int pen : {3, 4, 5, 8}) {
        std::uint64_t ct = 0, ca = 0;
        for (const auto &w : benchNames()) {
            auto &trad = compileBench(w, OptLevel::Traditional);
            auto &aggr = compileBench(w, OptLevel::Aggressive);
            SimConfig sc;
            sc.bufferOps = 256;
            sc.branchPenalty = pen;
            VliwSim st(trad.code, sc), sa(aggr.code, sc);
            ct += st.run().cycles;
            ca += sa.run().cycles;
        }
        std::printf("%-10d %14llu %14llu  (speedup %.2f)\n", pen,
                    (unsigned long long)ct, (unsigned long long)ca,
                    static_cast<double>(ct) / ca);
    }

    encodingStudy();

    std::printf("\n=== Future-work extensions (papers 7.1/7.3) ===\n");
    // Rotating registers: mpg123's MVE-inflated images shrink.
    {
        Program prog = workloads::buildWorkload("mpg123");
        CompileOptions plain;
        CompileResult a;
        compileProgram(prog, plain, a);
        CompileOptions rot;
        rot.rotatingRegisters = true;
        CompileResult b;
        compileProgram(prog, rot, b);
        std::printf("%-34s %10s %12s\n", "mpg123 (rotating registers)",
                    "buf-issue", "image-ops");
        for (int size : {256, 512, 1024, 2048}) {
            reallocateBuffers(a, size);
            reallocateBuffers(b, size);
            SimConfig sc;
            sc.bufferOps = size;
            VliwSim sa(a.code, sc), sb(b.code, sc);
            const auto ra = sa.run();
            const auto rb = sb.run();
            std::printf("  %4d ops: %5.1f%% -> %5.1f%%\n", size,
                        100.0 * ra.bufferFraction(),
                        100.0 * rb.bufferFraction());
        }
    }
    // Predicate activation queue: fewer register-file fallbacks.
    {
        int longPlain = 0, longQ = 0, queued = 0;
        for (const auto &w : benchNames()) {
            Program prog = workloads::buildWorkload(w);
            CompileOptions plain;
            CompileResult a;
            compileProgram(prog, plain, a);
            CompileOptions q;
            q.predQueueDepth = 2;
            CompileResult b;
            compileProgram(prog, q, b);
            longPlain += a.slotStats.predsRangeTooLong;
            longQ += b.slotStats.predsRangeTooLong;
            queued += b.slotStats.predsQueued;
        }
        std::printf("predicate queue (depth 2): range-fallbacks "
                    "%d -> %d, %d predicates queued\n",
                    longPlain, longQ, queued);
    }
    return 0;
}
