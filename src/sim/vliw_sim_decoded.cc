/**
 * @file
 * The decoded fast-path executor: semantically a twin of the
 * reference interpreter in vliw_sim.cc, but running over the
 * predecoded MicroOp image (decoded.hh). Differences are strictly
 * mechanical:
 *
 *  - operands are pre-resolved (no OperandKind switch per read);
 *  - NOPs are gone, bundle fetch sizes are precomputed;
 *  - data ops run through the datapath shared with trace replay
 *    (bundle_exec.hh): bundles decode proved hazard-free commit in
 *    place, the rest defer into fixed stack arrays instead of freshly
 *    allocated vectors;
 *  - loop statistics are indexed by dense loop id (no map lookups);
 *  - range checks proven at predecode time are not re-checked;
 *  - no event-trace emission sites: a run with a trace sink uses the
 *    reference engine (SimConfig::trace).
 *
 * Any behavioral divergence from the reference engine is a bug; the
 * engine-differential test compares complete SimStats between the
 * two across every registry workload.
 */

#include "sim/vliw_sim.hh"

#include "sim/account.hh"
#include "sim/bundle_exec.hh"
#include "sim/decoded.hh"
#include "sim/dispatch.hh"
#include "sim/trace_cache.hh"
#include "support/logging.hh"

namespace lbp
{

LoopCtx
VliwSim::enterLoop(const MicroOp &m, std::int64_t count)
{
    LoopCtx ctx;
    ctx.key = loopTable_->keys[static_cast<std::size_t>(m.loopId)];
    ctx.loopId = m.loopId;
    ctx.counted = m.counted;
    ctx.remaining = count;
    ctx.head = m.target;
    ctx.pipelined = m.pipelined;
    ctx.bodyLen = m.bodyLen;
    ctx.ii = m.ii;
    ctx.minII = m.minII;
    ctx.buffered = m.bufAddr >= 0;
    ctx.isExec = m.op == Opcode::EXEC_CLOOP || m.op == Opcode::EXEC_WLOOP;
    LoopStats &ls = stats_.loops[static_cast<std::size_t>(m.loopId)];
    ++ls.activations;
    if (ctx.buffered) {
        if (buffer_.isResident(ctx.key)) {
            buffer_.countTableHit();
            ctx.fromBuffer = true;
        } else {
            buffer_.record(ctx.key, m.bufAddr, m.imageOps, &evicted_);
            for (const LoopKey &ek : evicted_) {
                const int eid = loopTable_->idOf(ek);
                ++stats_.loops[static_cast<std::size_t>(eid)].evictions;
                // A replay trace cannot outlive the buffer image it
                // models.
                if (traceCache_)
                    traceCache_->invalidate(eid);
            }
            ++ls.recordings;
            ctx.fromBuffer = false;
        }
    }
    return ctx;
}

LoopTrace *
VliwSim::engageTrace(LoopCtx &top, const DecodedFunction &df)
{
    TraceBailoutReason reason;
    if (top.counted && top.remaining < cfg_.replayMinIters) {
        // Residency without enough iterations left to amortize a
        // replay: a real bailout (the general path runs the
        // activation), attributed like any build-gating decline.
        reason = TraceBailoutReason::BelowEngageThreshold;
    } else {
        LoopTrace &tr = traceCache_->acquire(top, df);
        if (tr.state == LoopTrace::State::Ready)
            return &tr;
        reason = tr.reason;
    }
    top.traceDeclined = true;
    traceCache_->countBailout(top.loopId, reason);
    return nullptr;
}

std::vector<std::int64_t>
VliwSim::callFunctionDecoded(FuncId f,
                             const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(++callDepth_ < 200, "sim call stack overflow");
    const DecodedProgram &dp = *decoded_;
    const DecodedFunction &df = dp.functions[f];
    LBP_ASSERT(args.size() == df.params.size(),
               "arg count mismatch calling ", df.fn->name);

    // Per-call register and predicate files come from the frame arena
    // (two pointer bumps instead of two heap allocations); the chunked
    // arena keeps them address-stable across recursive calls.
    FrameArena::Scope frame(arena_);
    std::int64_t *const regs = frame.allocI64(df.numRegs);
    std::uint8_t *const preds = frame.allocU8(df.numPreds);
    for (size_t i = 0; i < args.size(); ++i)
        regs[df.params[i]] = args[i];

    std::vector<LoopCtx> loopStack;

    BlockId curBlk = df.entry;
    size_t curBu = 0;

    const bool slotMode = cfg_.predMode == PredMode::SLOT;
    BundleExec bx(regs, preds, slotPred_.data(), mem_, slotMode);

    LBP_DISPATCH_TABLE();

    while (true) {
        LBP_ASSERT(curBlk != kNoBlock && curBlk < df.blocks.size(),
                   "sim fell off CFG in ", df.fn->name);
        const DecodedBlock &db = df.blocks[curBlk];
        LBP_ASSERT(db.valid, "sim in dead or unscheduled block");

        // Trace-cache engagement: arriving at the first bundle of the
        // innermost loop's head block while it issues from the buffer
        // is the replay condition (traces replay whole iterations).
        // A decline falls through to the general path and latches
        // traceDeclined, so resident-but-untraceable loops pay the
        // gate once per activation, not once per iteration.
        if (traceCache_ && curBu == 0 && !loopStack.empty()) {
            LoopCtx &top = loopStack.back();
            if (top.head == curBlk && top.fromBuffer &&
                !top.traceDeclined) {
                if (const LoopTrace *tr = engageTrace(top, df)) {
                    const ReplayResult rr =
                        replayResident(top, df, *tr, regs, preds);
                    switch (rr.outcome) {
                      case ReplayOutcome::BackedgeFellThrough: {
                        // The activation stays live; fetch falls
                        // through the nullified backedge into the
                        // head block's trailing bundles.
                        curBu = rr.resumeBundle;
                        continue;
                      }
                      case ReplayOutcome::SideExit: {
                        // Mirror the general path's end-of-bundle
                        // redirect: a same-bundle backedge exit
                        // retires the activation first, then
                        // context cancellation and the
                        // taken-branch penalty.
                        if (rr.ctxDone) {
                            LoopCtx done = loopStack.back();
                            loopStack.pop_back();
                            LBP_ASSERT(!done.isExec,
                                       "two control transfers in "
                                       "one bundle");
                            if (rr.whileExit) {
                                chargeRedirect(
                                    obs::CycleClass::
                                        WhileExitPenalty,
                                    done.loopId);
                            }
                            retireLoopStats(done);
                        }
                        while (!loopStack.empty() &&
                               loopStack.back().head == curBlk &&
                               rr.sideTarget !=
                                   loopStack.back().head) {
                            if (recorder_)
                                recorder_->cancel();
                            LoopCtx done = loopStack.back();
                            loopStack.pop_back();
                            retireLoopStats(done);
                        }
                        chargeRedirect(
                            obs::CycleClass::TakenBranchPenalty,
                            -1);
                        if (recorder_ && !loopStack.empty() &&
                            loopStack.back().head == rr.sideTarget)
                            recorder_->arrive(curBlk == rr.sideTarget);
                        curBlk = rr.sideTarget;
                        curBu = 0;
                        continue;
                      }
                      case ReplayOutcome::CountedDone:
                      case ReplayOutcome::WloopExit: {
                        LoopCtx done = loopStack.back();
                        loopStack.pop_back();
                        if (rr.outcome ==
                            ReplayOutcome::WloopExit) {
                            // While exits from the buffer are
                            // mispredicted (the buffer keeps
                            // replaying), exactly as on the
                            // general path.
                            chargeRedirect(
                                obs::CycleClass::WhileExitPenalty,
                                done.loopId);
                        }
                        retireLoopStats(done);
                        if (done.isExec) {
                            curBlk = done.resumeBlock;
                            curBu = done.resumeBundle;
                        } else {
                            curBu = rr.resumeBundle;
                        }
                        continue;
                      }
                    }
                }
            }
        }

        if (curBu >= db.bundleCount) {
            LBP_ASSERT(db.fallthrough != kNoBlock,
                       "sim fell off block in ", df.fn->name);
            curBlk = db.fallthrough;
            curBu = 0;
            if (recorder_ && !loopStack.empty() &&
                loopStack.back().head == curBlk)
                recorder_->arrive(false);
            continue;
        }

        const DecodedBundle &bu = df.bundles[db.firstBundle + curBu];
        LBP_ASSERT(++bundlesExecuted_ <= cfg_.maxBundles,
                   "bundle budget exceeded");

        // Fetch accounting: are we executing this bundle from the
        // loop buffer? Body ops are attributed to the innermost
        // active loop either way, so per-loop opsFromBuffer sums
        // exactly to the aggregate counter (the scorecard invariant).
        bool fromBuffer = false;
        int issueRow = -1;
        if (!loopStack.empty()) {
            const LoopCtx &top = loopStack.back();
            if (curBlk == top.head) {
                issueRow = top.loopId;
                fromBuffer = top.fromBuffer;
            }
        }
        ++stats_.bundles;
        stats_.opsFetched += bu.sizeOps;
        if (slotMode)
            stats_.opsSensitive += static_cast<std::uint64_t>(bu.sensOps);
        chargeFetch(issueRow, fromBuffer, 1,
                    static_cast<std::uint64_t>(bu.sizeOps));

        // ---- Phase 1: evaluate ----
        bx.begin(bu);

        bool redirect = false;
        BlockId nextBlk = kNoBlock;
        size_t nextBu = 0;
        bool freeXfer = false;
        obs::CycleClass redirCls = obs::CycleClass::TakenBranchPenalty;
        int redirRow = -1;
        const MicroOp *callOp = nullptr;
        const MicroOp *retOp = nullptr;
        bool sawControl = false;
        auto takeRedirect =
            [&](BlockId blk, size_t buIdx, bool free,
                obs::CycleClass cls =
                    obs::CycleClass::TakenBranchPenalty,
                int row = -1) {
            LBP_ASSERT(!sawControl,
                       "two control transfers in one bundle");
            sawControl = true;
            redirect = true;
            nextBlk = blk;
            nextBu = buIdx;
            freeXfer = free;
            redirCls = cls;
            redirRow = row;
        };

        const MicroOp *const opBase = df.ops.data();
        for (const MicroOp *m = opBase + bu.first,
                           *const end = m + bu.count;
             m != end; ++m) {
            const bool g = bx.guard(*m);
            if (BundleExec::nullified(*m, g, stats_))
                continue;

            LBP_DISPATCH(m->handler) {
              LBP_HANDLER(PRED_DEF) { bx.predDef(*m, g); LBP_NEXT_OP; }
              LBP_HANDLER(LOAD) { bx.load(*m); LBP_NEXT_OP; }
              LBP_HANDLER(STORE) { bx.store(*m); LBP_NEXT_OP; }
              LBP_HANDLER(MOV) { bx.mov(*m); LBP_NEXT_OP; }
              LBP_HANDLER(ABS) { bx.abs(*m); LBP_NEXT_OP; }
              LBP_HANDLER(ITOF) { bx.itof(*m); LBP_NEXT_OP; }
              LBP_HANDLER(FTOI) { bx.ftoi(*m); LBP_NEXT_OP; }
              LBP_HANDLER(SELECT) { bx.select(*m); LBP_NEXT_OP; }
              LBP_HANDLER(ALU) { bx.alu(*m); LBP_NEXT_OP; }

              LBP_HANDLER(BR) {
                ++stats_.branches;
                const bool taken = evalCond(m->cond, bx.read(m->src[0]),
                                            bx.read(m->src[1]));
                const bool isWloopBack =
                    m->op == Opcode::BR_WLOOP && !loopStack.empty() &&
                    !loopStack.back().counted &&
                    m->target == loopStack.back().head;
                if (taken) {
                    ++stats_.branchesTaken;
                    if (isWloopBack) {
                        LoopCtx &ctx = loopStack.back();
                        if (recorder_)
                            recorder_->back();
                        // Loop-backs of buffered loops are free (the
                        // buffer predicts them taken while looping).
                        takeRedirect(m->target, 0, loopBack(ctx),
                                     obs::CycleClass::
                                         LoopControlOverhead,
                                     ctx.loopId);
                    } else {
                        takeRedirect(m->target, 0, false);
                    }
                } else if (isWloopBack) {
                    // While-loop exit: retire the context. Exits are
                    // mispredicted when issuing from the buffer (the
                    // buffer keeps replaying); from memory the
                    // fall-through is the natural fetch path.
                    if (recorder_)
                        recorder_->exit(false);
                    LoopCtx ctx = loopStack.back();
                    loopStack.pop_back();
                    whileExit(ctx);
                    retireLoopStats(ctx);
                    if (ctx.isExec) {
                        takeRedirect(ctx.resumeBlock,
                                     ctx.resumeBundle, true);
                    }
                }
                LBP_NEXT_OP;
              }

              LBP_HANDLER(JUMP) {
                ++stats_.branches;
                ++stats_.branchesTaken;
                takeRedirect(m->target, 0, false);
                LBP_NEXT_OP;
              }

              LBP_HANDLER(BR_CLOOP) {
                ++stats_.branches;
                LBP_ASSERT(!loopStack.empty() &&
                               loopStack.back().counted,
                           "br.cloop without context in ",
                           df.fn->name);
                LoopCtx &ctx = loopStack.back();
                --ctx.remaining;
                if (ctx.remaining > 0) {
                    ++stats_.branchesTaken;
                    if (recorder_)
                        recorder_->back();
                    // Counted loop-backs of buffered loops are free;
                    // unbuffered ones redirect fetch like any taken
                    // branch. After the first (recording) iteration,
                    // fetch shifts to the buffer.
                    takeRedirect(m->target, 0, loopBack(ctx),
                                 obs::CycleClass::LoopControlOverhead,
                                 ctx.loopId);
                } else {
                    // Counted exit: fall-through, predicted by the
                    // count — never a redirect.
                    if (recorder_)
                        recorder_->exit(true);
                    countIteration(ctx);
                    LoopCtx done = ctx;
                    loopStack.pop_back();
                    retireLoopStats(done);
                    if (done.isExec) {
                        takeRedirect(done.resumeBlock,
                                     done.resumeBundle, true);
                    }
                }
                LBP_NEXT_OP;
              }

              LBP_HANDLER(LOOP) {
                std::int64_t count = 0;
                if (m->counted) {
                    count = bx.read(m->src[0]);
                    LBP_ASSERT(count >= 1, "cloop with count ", count);
                }
                LoopCtx ctx = enterLoop(*m, count);
                if (recorder_)
                    recorder_->enter(
                        f, static_cast<std::uint32_t>(m - opBase),
                        m->loopId, count);
                if (ctx.isExec) {
                    ctx.resumeBlock = curBlk;
                    ctx.resumeBundle = curBu + 1;
                    // Executing an already-buffered loop: no fetch
                    // redirect cost.
                    takeRedirect(m->target, 0, ctx.fromBuffer,
                                 obs::CycleClass::LoopControlOverhead,
                                 ctx.loopId);
                }
                loopStack.push_back(ctx);
                LBP_NEXT_OP;
              }

              LBP_HANDLER(CALL) {
                LBP_ASSERT(!callOp, "two calls in one bundle");
                callOp = m;
                LBP_NEXT_OP;
              }

              LBP_HANDLER(RET) {
                retOp = m;
                LBP_NEXT_OP;
              }
            }
            LBP_DISPATCH_END;
        }

        // ---- Phase 2: commit ----
        bx.commit();

        // Call/return (serialize: the call is the bundle's transfer).
        if (retOp) {
            std::vector<std::int64_t> rets;
            rets.reserve(retOp->xsrcCount);
            for (std::uint32_t i = 0; i < retOp->xsrcCount; ++i)
                rets.push_back(
                    bx.read(dp.extraSrcs[retOp->xsrcBegin + i]));
            // Returning with live loop contexts would corrupt the
            // caller's hardware loop stack.
            LBP_ASSERT(loopStack.empty(),
                       "RET with live hardware-loop context in ",
                       df.fn->name);
            chargeRedirect(obs::CycleClass::CallReturnPenalty, -1);
            --callDepth_;
            return rets;
        }
        if (callOp) {
            std::vector<std::int64_t> cargs;
            cargs.reserve(callOp->xsrcCount);
            for (std::uint32_t i = 0; i < callOp->xsrcCount; ++i)
                cargs.push_back(
                    bx.read(dp.extraSrcs[callOp->xsrcBegin + i]));
            chargeRedirect(obs::CycleClass::CallReturnPenalty, -1);
            auto rets =
                callFunctionDecoded(callOp->callee, cargs);
            for (std::uint32_t i = 0; i < callOp->xdstCount; ++i)
                regs[dp.extraDsts[callOp->xdstBegin + i]] = rets[i];
        }

        // Control transfer. A taken transfer that leaves the active
        // hardware loop's body cancels its context (zero-overhead-
        // loop hardware cancels on branches out of the loop).
        if (redirect) {
            while (!loopStack.empty() &&
                   loopStack.back().head == curBlk &&
                   nextBlk != loopStack.back().head) {
                if (recorder_)
                    recorder_->cancel();
                LoopCtx done = loopStack.back();
                loopStack.pop_back();
                retireLoopStats(done);
            }
            if (!freeXfer)
                chargeRedirect(redirCls, redirRow);
            if (recorder_) {
                // A plain taken branch: a side exit as trace replay
                // sees it, of an exit in this bundle or of the head
                // block it leaves.
                const bool plain =
                    !freeXfer &&
                    redirCls == obs::CycleClass::TakenBranchPenalty;
                if (plain)
                    recorder_->sideExitAfterExit();
                if (nextBu == 0 && !loopStack.empty() &&
                    loopStack.back().head == nextBlk)
                    recorder_->arrive(plain && curBlk == nextBlk);
            }
            curBlk = nextBlk;
            curBu = nextBu;
        } else {
            ++curBu;
        }
    }
}

} // namespace lbp
