/**
 * @file
 * Trace build (with its static safety gating) and the replay driver.
 *
 * The replay driver is the decoded executor restricted to
 * resident-loop iterations: the same datapath (bundle_exec.hh) runs
 * the same decoded ops, with the block walk, fetch-path test and
 * per-bundle counter updates hoisted out (charged once per
 * iteration), and its own control handlers for the backedge and side
 * exits. Every counter it touches must end a run bit-identical to
 * the general path; the engine-differential test enforces that
 * against the reference interpreter with the cache force-enabled and
 * force-disabled.
 */

#include "sim/trace_cache.hh"

#include "obs/prof.hh"
#include "sim/account.hh"
#include "sim/bundle_exec.hh"
#include "sim/dispatch.hh"
#include "sim/vliw_sim.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/**
 * The loop's own backedge inside its head block: BR_CLOOP/BR_WLOOP
 * (by ctx.counted) targeting the head. Returns the op and its bundle
 * index, or {nullptr, -1}.
 */
struct BackedgeLoc
{
    const MicroOp *op = nullptr;
    std::int32_t bundle = -1;
};

BackedgeLoc
findBackedge(const LoopCtx &ctx, const DecodedFunction &df)
{
    const DecodedBlock &db = df.blocks[ctx.head];
    const Opcode beOp =
        ctx.counted ? Opcode::BR_CLOOP : Opcode::BR_WLOOP;
    for (std::uint32_t bi = 0; bi < db.bundleCount; ++bi) {
        const DecodedBundle &bu = df.bundles[db.firstBundle + bi];
        for (std::uint32_t oi = 0; oi < bu.count; ++oi) {
            const MicroOp &m = df.ops[bu.first + oi];
            if (m.op == beOp && m.target == ctx.head)
                return {&m, static_cast<std::int32_t>(bi)};
        }
    }
    return {};
}

} // namespace

const char *
traceBailoutReasonName(TraceBailoutReason r)
{
    switch (r) {
      case TraceBailoutReason::None: return "none";
      case TraceBailoutReason::Unknown: return "unknown";
      case TraceBailoutReason::EmptyBody: return "emptyBody";
      case TraceBailoutReason::NoHeadBackedge:
        return "noHeadBackedge";
      case TraceBailoutReason::SlotSensitiveBackedge:
        return "slotSensitiveBackedge";
      case TraceBailoutReason::CallInBody: return "callInBody";
      case TraceBailoutReason::NestedLoop: return "nestedLoop";
      case TraceBailoutReason::MultiBackedge:
        return "multiBackedge";
      case TraceBailoutReason::BelowEngageThreshold:
        return "belowEngageThreshold";
      case TraceBailoutReason::Count: break;
    }
    return "unknown";
}

TraceBailoutReason
classifyTraceBody(const LoopCtx &ctx, const DecodedFunction &df)
{
    const DecodedBlock &db = df.blocks[ctx.head];
    if (!db.valid || db.bundleCount == 0)
        return TraceBailoutReason::EmptyBody;

    // The backedge: the loop's own BR_CLOOP / BR_WLOOP back to the
    // head, non-sensitive. A guard is fine — replay evaluates it in
    // stream order, and a nullified backedge hands back as a
    // fall-through.
    const BackedgeLoc be = findBackedge(ctx, df);
    if (be.op == nullptr)
        return TraceBailoutReason::NoHeadBackedge;
    if (be.op->sensitive)
        return TraceBailoutReason::SlotSensitiveBackedge;

    // Every other op up to the backedge bundle must be straight-line
    // or a side exit the replay loop turns into a trace-exit check.
    // Calls, nested loops and second backedges stay untraceable (a
    // second backedge mutates the activation's own iteration state,
    // which a side-exit check cannot model).
    for (std::int32_t bi = 0; bi <= be.bundle; ++bi) {
        const DecodedBundle &bu = df.bundles[db.firstBundle + bi];
        for (std::uint32_t oi = 0; oi < bu.count; ++oi) {
            const MicroOp &m = df.ops[bu.first + oi];
            if (&m == be.op)
                continue;
            switch (m.handler) {
              case ExecHandler::PRED_DEF:
              case ExecHandler::LOAD:
              case ExecHandler::STORE:
              case ExecHandler::MOV:
              case ExecHandler::ABS:
              case ExecHandler::ITOF:
              case ExecHandler::FTOI:
              case ExecHandler::SELECT:
#define LBP_ALU_HANDLER_CASE(OP) case ExecHandler::ALU_##OP:
              LBP_BINARY_ALU_OPS(LBP_ALU_HANDLER_CASE)
#undef LBP_ALU_HANDLER_CASE
              case ExecHandler::JUMP:
                break;
              case ExecHandler::CALL:
              case ExecHandler::RET:
                return TraceBailoutReason::CallInBody;
              case ExecHandler::BR:
                // A second while backedge is not a side exit: the
                // general path's BR handler gives it loop-iteration
                // semantics (only in a non-counted context).
                if (!ctx.counted && m.op == Opcode::BR_WLOOP &&
                    m.target == ctx.head)
                    return TraceBailoutReason::MultiBackedge;
                break;
              case ExecHandler::BR_CLOOP:
                return TraceBailoutReason::MultiBackedge;
              case ExecHandler::LOOP:
                return TraceBailoutReason::NestedLoop;
              case ExecHandler::COUNT:
                LBP_PANIC("bad handler byte in trace build");
            }
        }
    }
    return TraceBailoutReason::None;
}

bool
operator==(const TraceCacheStats &a, const TraceCacheStats &b)
{
    const TraceCacheStats::PredReplay &pa = a.predReplay;
    const TraceCacheStats::PredReplay &pb = b.predReplay;
    if (a.builds != b.builds || a.replays != b.replays ||
        a.bailouts != b.bailouts || a.invalidations != b.invalidations ||
        a.replayedIterations != b.replayedIterations ||
        a.replayedOps != b.replayedOps || pa.builds != pb.builds ||
        pa.replays != pb.replays || pa.iterations != pb.iterations ||
        pa.ops != pb.ops || pa.sideExits != pb.sideExits ||
        pa.backedgeFallthroughs != pb.backedgeFallthroughs ||
        a.perLoop.size() != b.perLoop.size())
        return false;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceBailoutReason::Count); ++i)
        if (a.bailoutsBy[i] != b.bailoutsBy[i])
            return false;
    for (std::size_t id = 0; id < a.perLoop.size(); ++id) {
        const TraceCacheStats::PerLoop &la = a.perLoop[id];
        const TraceCacheStats::PerLoop &lb = b.perLoop[id];
        if (la.replays != lb.replays || la.iterations != lb.iterations ||
            la.ops != lb.ops || la.bailouts != lb.bailouts ||
            la.lastReason != lb.lastReason)
            return false;
    }
    return true;
}

void
accumulateTraceCacheStats(TraceCacheStats &into,
                          const TraceCacheStats &from)
{
    into.builds += from.builds;
    into.replays += from.replays;
    into.bailouts += from.bailouts;
    into.invalidations += from.invalidations;
    into.replayedIterations += from.replayedIterations;
    into.replayedOps += from.replayedOps;
    into.predReplay.builds += from.predReplay.builds;
    into.predReplay.replays += from.predReplay.replays;
    into.predReplay.iterations += from.predReplay.iterations;
    into.predReplay.ops += from.predReplay.ops;
    into.predReplay.sideExits += from.predReplay.sideExits;
    into.predReplay.backedgeFallthroughs +=
        from.predReplay.backedgeFallthroughs;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceBailoutReason::Count);
         ++i)
        into.bailoutsBy[i] += from.bailoutsBy[i];
    if (into.perLoop.size() < from.perLoop.size())
        into.perLoop.resize(from.perLoop.size());
    for (std::size_t id = 0; id < from.perLoop.size(); ++id) {
        const TraceCacheStats::PerLoop &src = from.perLoop[id];
        TraceCacheStats::PerLoop &dst = into.perLoop[id];
        dst.replays += src.replays;
        dst.iterations += src.iterations;
        dst.ops += src.ops;
        dst.bailouts += src.bailouts;
        if (src.lastReason != TraceBailoutReason::None)
            dst.lastReason = src.lastReason;
    }
}

TraceCache::TraceCache(std::size_t numLoops) : traces_(numLoops)
{
    stats_.perLoop.resize(numLoops);
}

void
TraceCache::resetRunStats()
{
    TraceCacheStats fresh;
    fresh.perLoop.resize(traces_.size());
    stats_ = std::move(fresh);
}

void
TraceCache::countBailout(int loopId, TraceBailoutReason reason)
{
    ++stats_.bailouts;
    ++stats_.bailoutsBy[static_cast<std::size_t>(reason)];
    TraceCacheStats::PerLoop &pl = stats_.perLoop[loopId];
    ++pl.bailouts;
    pl.lastReason = reason;
}

void
TraceCache::invalidate(int loopId)
{
    LoopTrace &tr = traces_[loopId];
    if (tr.state != LoopTrace::State::Ready)
        return;
    tr.state = LoopTrace::State::Stale;
    ++stats_.invalidations;
}

LoopTrace &
TraceCache::acquire(const LoopCtx &ctx, const DecodedFunction &df)
{
    LBP_ASSERT(ctx.loopId >= 0 &&
                   static_cast<std::size_t>(ctx.loopId) <
                       traces_.size(),
               "trace cache: loop id out of range");
    LoopTrace &tr = traces_[ctx.loopId];
    if (tr.state == LoopTrace::State::Unbuilt)
        build(tr, ctx, df);
    else if (tr.state == LoopTrace::State::Stale)
        tr.state = LoopTrace::State::Ready;  // O(1): see State::Stale
    return tr;
}

void
TraceCache::build(LoopTrace &tr, const LoopCtx &ctx,
                  const DecodedFunction &df)
{
    obs::prof::ScopedRegion profRegion(
        obs::prof::Region::TraceBuild);

    // Static gating first: any verdict other than None is a body
    // shape the replay loop cannot reproduce bit-exactly, recorded on
    // the trace so each later declined activation knows its reason.
    const TraceBailoutReason verdict = classifyTraceBody(ctx, df);
    if (verdict != TraceBailoutReason::None) {
        tr.state = LoopTrace::State::Untraceable;
        tr.reason = verdict;
        return;
    }

    // The trace is the head block's bundles up to and including the
    // backedge's; predicated when the backedge is guarded or another
    // branch can leave the body (a side exit).
    const DecodedBlock &db = df.blocks[ctx.head];
    const BackedgeLoc be = findBackedge(ctx, df);
    tr.firstBundle = db.firstBundle;
    tr.bundleCount = static_cast<std::uint32_t>(be.bundle) + 1;
    tr.beOp = static_cast<std::uint32_t>(be.op - df.ops.data());
    tr.predicated = be.op->guard != kNoPred;
    for (std::uint32_t bi = 0; bi < tr.bundleCount; ++bi) {
        const DecodedBundle &bu = df.bundles[tr.firstBundle + bi];
        tr.opsPerIter += static_cast<std::uint64_t>(bu.sizeOps);
        tr.sensitivePerIter += static_cast<std::uint64_t>(bu.sensOps);
        for (std::uint32_t oi = bu.first; oi < bu.first + bu.count; ++oi)
            if (oi != tr.beOp &&
                (df.ops[oi].handler == ExecHandler::BR ||
                 df.ops[oi].handler == ExecHandler::JUMP))
                tr.predicated = true;
    }

    tr.state = LoopTrace::State::Ready;
    ++stats_.builds;
    if (tr.predicated)
        ++stats_.predReplay.builds;
}

ReplayResult
VliwSim::replayResident(LoopCtx &ctx, const DecodedFunction &df,
                        const LoopTrace &tr, std::int64_t *regs,
                        std::uint8_t *preds)
{
    obs::prof::ScopedRegion profRegion(
        obs::prof::Region::SimReplay);
    LoopStats &ls = stats_.loops[ctx.loopId];
    const bool slotMode = cfg_.predMode == PredMode::SLOT;
    BundleExec bx(regs, preds, slotPred_.data(), mem_, slotMode);

    const MicroOp *const opBase = df.ops.data();
    const MicroOp *const beOp = opBase + tr.beOp;
    const DecodedBundle *const buBase = df.bundles.data() + tr.firstBundle;
    const std::size_t nBundles = tr.bundleCount;

    // Control outcome of the current iteration, set by the control
    // handlers. The backedge sits in the last bundle, so only a taken
    // side exit can end an iteration early, and an iteration that
    // sets none of the backedge outcomes fell through a nullified
    // backedge.
    bool sawControl = false;
    bool backTaken = false;
    bool countedExit = false;
    bool wloopExit = false;
    bool sideTaken = false;
    BlockId sideTgt = kNoBlock;

    // Run one iteration and return how many bundles it issued: all of
    // them, unless a taken side exit stopped it after its own bundle.
    auto execIteration = [&]() -> std::size_t {
        LBP_DISPATCH_TABLE();
        for (std::size_t bi = 0; bi < nBundles; ++bi) {
            const DecodedBundle &bu = buBase[bi];
            bx.begin(bu);
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
                  LBP_ALU_HANDLERS

                  // Control ops: the activation's own backedge (at
                  // beOp) plus side exits. Each mirrors the general
                  // path's handler semantics exactly; taken transfers
                  // are resolved by the driver after the bundle
                  // commits, like the general path's end-of-bundle
                  // redirect.
                  LBP_HANDLER(BR) {
                    ++stats_.branches;
                    const bool taken =
                        evalCond(m->cond, bx.read(m->src[0]),
                                 bx.read(m->src[1]));
                    if (m == beOp) {
                        // The while backedge (a counted loop's
                        // backedge is a BR_CLOOP).
                        ++ctx.iterations;
                        ++ls.bufferIterations;
                        if (taken) {
                            ++stats_.branchesTaken;
                            LBP_ASSERT(!sawControl,
                                       "two control transfers in one "
                                       "bundle");
                            sawControl = true;
                            backTaken = true; // free buffered loop-back
                        } else {
                            wloopExit = true; // caller pays the penalty
                        }
                    } else if (taken) {
                        ++stats_.branchesTaken;
                        LBP_ASSERT(!sawControl,
                                   "two control transfers in one "
                                   "bundle");
                        sawControl = true;
                        sideTaken = true;
                        sideTgt = m->target;
                    }
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(JUMP) {
                    ++stats_.branches;
                    ++stats_.branchesTaken;
                    LBP_ASSERT(!sawControl,
                               "two control transfers in one bundle");
                    sawControl = true;
                    sideTaken = true;
                    sideTgt = m->target;
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(BR_CLOOP) {
                    // Only the loop's own backedge survives gating.
                    ++stats_.branches;
                    ++ctx.iterations;
                    ++ls.bufferIterations;
                    --ctx.remaining;
                    if (ctx.remaining > 0) {
                        ++stats_.branchesTaken;
                        LBP_ASSERT(!sawControl,
                                   "two control transfers in one "
                                   "bundle");
                        sawControl = true;
                        backTaken = true; // free buffered loop-back
                    } else {
                        countedExit = true; // predicted fall-through
                    }
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(LOOP)
                  LBP_HANDLER(CALL)
                  LBP_HANDLER(RET) {
                    LBP_PANIC("control op in replay trace");
                  }
                }
                LBP_DISPATCH_END;
            }
            bx.commit();
            if (sideTaken)
                return bi + 1;
        }
        return nBundles;
    };

    // Whole iterations until the activation ends or hands back. The
    // issue counters are charged per iteration from the build's
    // per-iteration totals, or summed bundle by bundle for the one
    // partial iteration a side exit can produce.
    std::uint64_t iters = 0;
    std::uint64_t loopBacks = 0;
    std::uint64_t bundlesIssued = 0;
    std::uint64_t opsIssued = 0;
    std::uint64_t sensIssued = 0;
    ReplayOutcome outcome;
    for (;;) {
        sawControl = backTaken = false;
        countedExit = wloopExit = sideTaken = false;
        const std::size_t ran = execIteration();
        bundlesExecuted_ += ran;
        LBP_ASSERT(bundlesExecuted_ <= cfg_.maxBundles,
                   "bundle budget exceeded");
        bundlesIssued += ran;
        if (ran == nBundles) {
            opsIssued += tr.opsPerIter;
            sensIssued += tr.sensitivePerIter;
        } else {
            for (std::size_t bi = 0; bi < ran; ++bi) {
                opsIssued += static_cast<std::uint64_t>(
                    buBase[bi].sizeOps);
                sensIssued += static_cast<std::uint64_t>(
                    buBase[bi].sensOps);
            }
        }

        if (sideTaken) {
            // The caller mirrors the general path's end-of-bundle
            // redirect (context cancellation + taken-branch penalty);
            // a same-bundle backedge exit retires the activation
            // first (ctxDone below).
            if (countedExit || wloopExit)
                ++iters;
            outcome = ReplayOutcome::SideExit;
            break;
        }
        if (backTaken) {
            ++iters;
            ++loopBacks;
            continue;
        }
        if (countedExit) {
            ++iters;
            outcome = ReplayOutcome::CountedDone;
            break;
        }
        if (wloopExit) {
            ++iters;
            outcome = ReplayOutcome::WloopExit;
            break;
        }
        outcome = ReplayOutcome::BackedgeFellThrough;
        break;
    }

    // The size-independent counters here; the rest is shared with
    // the accountant.
    stats_.bundles += bundlesIssued;
    stats_.opsFetched += opsIssued;
    if (slotMode)
        stats_.opsSensitive += sensIssued;
    chargeReplay(ctx, tr, iters, bundlesIssued, opsIssued, outcome);

    if (recorder_) {
        // The whole iterations replayed, as the general path would
        // have recorded them; the last, partial one is picked up by
        // the next event's head-issue delta.
        recorder_->loopBacks(loopBacks, nBundles, tr.opsPerIter);
        if (countedExit || wloopExit)
            recorder_->exit(countedExit, sideTaken);
    }

    ReplayResult rr;
    rr.outcome = outcome;
    rr.resumeBundle = static_cast<std::uint32_t>(nBundles);
    rr.sideTarget = sideTgt;
    rr.ctxDone = countedExit || wloopExit;
    rr.whileExit = wloopExit;
    return rr;
}

void
VliwSim::chargeReplay(const LoopCtx &ctx, const LoopTrace &tr,
                      std::uint64_t iters, std::uint64_t bundles,
                      std::uint64_t ops, ReplayOutcome outcome)
{
    stats_.cycles += bundles;
    cycleStack_.charge(ctx.loopId,
                       obs::CycleClass::IssueFromTraceReplay, bundles);
    stats_.opsFromBuffer += ops;
    stats_.loops[static_cast<std::size_t>(ctx.loopId)].opsFromBuffer +=
        ops;

    TraceCacheStats &tcs = traceCache_->stats();
    ++tcs.replays;
    tcs.replayedIterations += iters;
    tcs.replayedOps += ops;
    TraceCacheStats::PerLoop &pl =
        tcs.perLoop[static_cast<std::size_t>(ctx.loopId)];
    ++pl.replays;
    pl.iterations += iters;
    pl.ops += ops;
    if (tr.predicated) {
        ++tcs.predReplay.replays;
        tcs.predReplay.iterations += iters;
        tcs.predReplay.ops += ops;
        if (outcome == ReplayOutcome::SideExit)
            ++tcs.predReplay.sideExits;
        else if (outcome == ReplayOutcome::BackedgeFellThrough)
            ++tcs.predReplay.backedgeFallthroughs;
    }
}

} // namespace lbp
