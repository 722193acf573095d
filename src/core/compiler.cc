#include "core/compiler.hh"

#include "analysis/loop_info.hh"
#include "core/stage_verifier.hh"
#include "ir/verifier.hh"
#include "obs/phase_timer.hh"
#include "obs/registry.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "transform/classic_opts.hh"

namespace lbp
{

namespace
{

/** Is this block a simple hardware-loop body? */
bool
isSimpleLoopBody(const BasicBlock &bb)
{
    const Operation *term = bb.terminator();
    if (!term)
        return false;
    if (term->op == Opcode::BR_CLOOP || term->op == Opcode::BR_WLOOP)
        return term->target == bb.id;
    if (term->op == Opcode::BR || term->op == Opcode::JUMP)
        return term->target == bb.id;
    return false;
}

} // namespace

void
compileProgram(const Program &input, const CompileOptions &opts,
               CompileResult &out)
{
    obs::Registry *const reg = opts.obsRegistry;
    obs::prof::ScopedRegion profRegion(obs::prof::Region::Compile);
    obs::ScopedPhase total(reg, "compile.total");

    out.ir = input;
    Program &prog = out.ir;
    out.originalOps = prog.sizeOps();
    verifyOrDie(prog);

    // Each stage is bracketed by a ScopedPhase: elapsed wall time
    // lands in "compile.phase.<NN_stage>.ms" and the static op-count
    // delta in ".ops_before/.ops_after/.ops_delta". The numeric
    // prefix keeps the registry's name order equal to pipeline order.
    auto phase = [&](const char *name) {
        return obs::ScopedPhase(reg,
                                std::string("compile.phase.") + name,
                                prog.sizeOps());
    };

    // 1. Profile + golden checksum. The verifier re-interprets the
    //    program after every transform stage whose output differs
    //    from the last program it verified.
    auto verifier = [&] {
        auto ph = phase("01_profile");
        return StageVerifier(prog, opts.profileArgs, opts.verifyStages);
    }();
    out.goldenChecksum = verifier.golden();

    // 2. Profile-guided inlining (<= 50% expansion, per the paper).
    if (opts.doInline) {
        auto ph = phase("02_inline");
        out.inlineStats = inlineHotCalls(prog);
        verifyOrDie(prog);
        verifier.check(prog, "inline");
        ph.finishOps(prog.sizeOps());
    }

    // 3. Classic optimization + height reduction (reassociation is
    //    part of the paper's "traditional loop optimizations" and the
    //    Figure-2d height-reducing step).
    {
        auto ph = phase("03_classic_opts");
        optimizeProgram(prog);
        out.reassocStats = reassociate(prog);
        optimizeProgram(prog);
        verifyOrDie(prog);
        verifier.check(prog, "classic-opts");
        ph.finishOps(prog.sizeOps());
    }

    // 4. Control transformations (Aggressive only).
    if (opts.level == OptLevel::Aggressive) {
        {
            auto ph = phase("04_peel");
            out.peelStats = peelLoops(prog, {}, &out.loopLog);
            verifyOrDie(prog);
            verifier.check(prog, "peel");
            ph.finishOps(prog.sizeOps());
        }

        VerifyOptions hyperOk;
        hyperOk.allowInternalBranches = true;

        {
            auto ph = phase("05_if_convert");
            out.ifConvertStats = ifConvertLoops(prog, {}, &out.loopLog);
            verifyOrDie(prog, hyperOk);
            verifier.check(prog, "if-convert");
            ph.finishOps(prog.sizeOps());
        }

        {
            auto ph = phase("06_collapse");
            out.collapseStats = collapseLoops(prog, {}, &out.loopLog);
            verifyOrDie(prog, hyperOk);
            verifier.check(prog, "collapse");
            ph.finishOps(prog.sizeOps());
        }

        // Collapsing can expose newly-childless outer loops.
        {
            auto ph = phase("07_if_convert2");
            auto s2 = ifConvertLoops(prog, {}, &out.loopLog);
            out.ifConvertStats.loopsConverted += s2.loopsConverted;
            out.ifConvertStats.blocksMerged += s2.blocksMerged;
            out.ifConvertStats.predDefsInserted += s2.predDefsInserted;
            out.ifConvertStats.sideExits += s2.sideExits;
            verifyOrDie(prog, hyperOk);
            verifier.check(prog, "if-convert-2");
            ph.finishOps(prog.sizeOps());
        }

        {
            auto ph = phase("08_branch_combine");
            out.branchCombineStats =
                combineBranches(prog, {}, &out.loopLog);
            verifyOrDie(prog, hyperOk);
            verifier.check(prog, "branch-combine");
            ph.finishOps(prog.sizeOps());
        }

        {
            auto ph = phase("09_promote");
            out.promoteStats = promoteOperations(prog);
            verifyOrDie(prog, hyperOk);
            verifier.check(prog, "promote");
            ph.finishOps(prog.sizeOps());
        }

        {
            auto ph = phase("10_classic_opts2");
            optimizeProgram(prog);
            {
                auto r2 = reassociate(prog);
                out.reassocStats.chainsRebalanced +=
                    r2.chainsRebalanced;
                out.reassocStats.opsInChains += r2.opsInChains;
            }
            optimizeProgram(prog);
            verifyOrDie(prog, hyperOk);
            verifier.check(prog, "classic-opts-2");
            ph.finishOps(prog.sizeOps());
        }
    }

    // 5. Hardware-loop conversion (both levels).
    {
        auto ph = phase("11_counted_loop");
        out.countedLoopStats = convertCountedLoops(prog);
        {
            VerifyOptions v;
            v.allowInternalBranches =
                opts.level == OptLevel::Aggressive;
            verifyOrDie(prog, v);
        }
        ph.finishOps(prog.sizeOps());
    }

    // 6. Refresh the profile (weights drive buffer allocation). Its
    //    checksum is the counted-loop stage's check.
    {
        auto ph = phase("12_reprofile");
        out.transformedChecksum =
            verifier.reprofile(prog, "counted-loop").checksum;
    }
    if (reg)
        verifier.publish(*reg);
    out.finalOps = prog.sizeOps();

    // 6b. Classify every natural loop that survived the transforms.
    // Loops whose shape can never become a hardware loop get their
    // rejection recorded here (the transforms above only log loops
    // they actually inspected); simple loops get their estimated
    // dynamic op count from the refreshed profile, and their fate is
    // left to buffer allocation.
    for (const auto &fn : prog.functions) {
        LoopInfo li(fn);
        for (const auto &loop : li.loops()) {
            const std::string name =
                fn.name + "/" + fn.blocks[loop.header].name;
            obs::LoopDecision &d = out.loopLog.decision(name);
            double est = 0.0;
            for (BlockId b : loop.blocks)
                est += fn.blocks[b].weight * fn.blocks[b].sizeOps();
            d.estDynOps = est;
            if (d.fate != obs::LoopFate::Unknown)
                continue;
            if (!loop.children.empty()) {
                d.fate = obs::LoopFate::Rejected;
                d.reason = obs::LoopReason::NotInnermost;
            } else if (loop.blocks.size() > 1) {
                d.fate = obs::LoopFate::Rejected;
                d.reason = obs::LoopReason::NotSimple;
            } else if (!isSimpleLoopBody(fn.blocks[loop.header])) {
                d.fate = obs::LoopFate::Rejected;
                d.reason = obs::LoopReason::BadShape;
            }
            // else: simple hardware loop — buffer_alloc decides.
        }
    }

    // 7. Schedule.
    {
        auto ph = phase("13_schedule");
        out.code.ir = &prog;
        out.code.functions.clear();
        out.code.functions.resize(prog.functions.size());
        for (const auto &fn : prog.functions) {
            SchedFunction &sf = out.code.functions[fn.id];
            sf.func = fn.id;
            sf.blocks.resize(fn.blocks.size());
            for (const auto &bb : fn.blocks) {
                if (bb.dead)
                    continue;
                SchedBlock sb;
                const bool loopBody = isSimpleLoopBody(bb);
                if (loopBody)
                    ++out.simpleLoops;
                if (loopBody && opts.moduloSchedule) {
                    ModuloOptions mo;
                    mo.rotatingRegisters = opts.rotatingRegisters;
                    ModuloResult mres;
                    sb = moduloScheduleLoop(bb, out.machine, mo,
                                            &mres);
                    obs::LoopAttempt a;
                    a.transform = "modulo";
                    a.opsBefore = bb.sizeOps();
                    if (sb.valid) {
                        ++out.moduloLoops;
                        a.applied = true;
                        a.opsAfter = sb.imageOps();
                        a.ii = sb.ii;
                        a.resMII = mres.resMII;
                        a.recMII = mres.recMII;
                        a.note = "II " + std::to_string(sb.ii) +
                                 " (res " +
                                 std::to_string(mres.resMII) +
                                 ", rec " +
                                 std::to_string(mres.recMII) + ")";
                    } else {
                        sb = listScheduleBlock(bb, out.machine);
                        sb.isLoopBody = true;
                        a.reason = obs::LoopReason::SchedFailed;
                        a.opsAfter = bb.sizeOps();
                        a.note = "list-scheduled fallback";
                    }
                    out.loopLog.addAttempt(fn.name + "/" + bb.name,
                                           std::move(a));
                } else {
                    sb = listScheduleBlock(bb, out.machine);
                    sb.isLoopBody = loopBody;
                }
                sf.blocks[bb.id] = std::move(sb);
            }
        }
    }

    // 8. Slot-predication lowering.
    if (opts.level == OptLevel::Aggressive && opts.slotLowering) {
        auto ph = phase("14_slot_lowering");
        out.slotStats = lowerProgramToSlots(prog, out.code,
                                            out.machine,
                                            opts.predQueueDepth,
                                            &out.loopLog);
    }

    // 9. Buffer allocation + link.
    {
        auto ph = phase("15_buffer_alloc");
        BufferAllocOptions ba;
        ba.bufferOps = opts.bufferOps;
        out.bufferAlloc =
            allocateLoopBuffers(prog, out.code, ba, &out.loopLog);
        out.code.link();
        out.scheduledOps = out.code.sizeOps();
    }
}

void
reallocateBuffers(CompileResult &result, int bufferOps)
{
    BufferAllocOptions ba;
    ba.bufferOps = bufferOps;
    result.bufferAlloc = allocateLoopBuffers(result.ir, result.code,
                                             ba, &result.loopLog);
    result.code.link();
}

} // namespace lbp
