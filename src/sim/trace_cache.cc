/**
 * @file
 * Trace build (with its static safety gating) and the replay loop.
 *
 * The replay loop is a semantic twin of the decoded executor body
 * restricted to resident-loop iterations: same two-phase bundle
 * commit (unless the build proved a bundle direct-committable), same
 * nullification, branch and sensitivity accounting, same per-loop
 * attribution — but with the block walk, fetch-path test and
 * per-bundle counter updates hoisted out (charged once per
 * iteration). Every counter it touches must end a run bit-identical
 * to the general path; the engine-differential test enforces that
 * against the reference interpreter with the cache force-enabled and
 * force-disabled.
 */

#include "sim/trace_cache.hh"

#include <algorithm>

#include "ir/alu_ops.hh"
#include "obs/prof.hh"
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
              case ExecHandler::ALU:
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

TraceCache::TraceCache(std::size_t numLoops, bool slotMode)
    : traces_(numLoops), slotMode_(slotMode)
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

    const DecodedBlock &db = df.blocks[ctx.head];
    const BackedgeLoc be = findBackedge(ctx, df);
    const MicroOp *const backedge = be.op;
    tr.predicated = backedge->guard != kNoPred;

    // Flatten bundles 0..backedge, baking the static facts replay
    // uses: can the op ever be nullified, and can the bundle commit
    // writes in place (no op reads register/predicate/slot state an
    // earlier same-bundle op writes; no load after a store).
    for (std::int32_t bi = 0; bi <= be.bundle; ++bi) {
        const DecodedBundle &bu = df.bundles[db.firstBundle + bi];
        TraceBundle tb;
        tb.first = static_cast<std::uint32_t>(tr.ops.size());
        tb.sizeOps = bu.sizeOps;

        std::vector<std::int32_t> wRegs, wPreds, wSlots;
        bool sawStore = false;
        int slotWrites = 0;
        bool direct = true;
        auto wrote = [](const std::vector<std::int32_t> &v,
                        std::int32_t x) {
            return std::find(v.begin(), v.end(), x) != v.end();
        };
        auto readsEarlierWrite = [&](const MicroOp &m) {
            if (m.guard != kNoPred && wrote(wPreds, m.guard))
                return true;
            if (slotMode_ && m.sensitive && wrote(wSlots, m.slot))
                return true;
            for (const XSrc &s : m.src) {
                if (s.kind == XSrc::REG &&
                    wrote(wRegs, static_cast<std::int32_t>(s.idx)))
                    return true;
                if (s.kind == XSrc::PRED &&
                    wrote(wPreds, static_cast<std::int32_t>(s.idx)))
                    return true;
            }
            return m.handler == ExecHandler::LOAD && sawStore;
        };

        for (std::uint32_t oi = 0; oi < bu.count; ++oi) {
            const MicroOp &m = df.ops[bu.first + oi];
            if (&m == backedge) {
                tr.beOpIndex =
                    static_cast<std::uint32_t>(tr.ops.size());
            } else if (m.handler == ExecHandler::BR ||
                       m.handler == ExecHandler::JUMP) {
                tr.predicated = true;  // a side exit
            }
            if (readsEarlierWrite(m))
                direct = false;
            if (m.handler == ExecHandler::PRED_DEF) {
                auto recDst = [&](PredDefKind k, std::uint8_t kind,
                                  std::int32_t idx) {
                    if (k == PredDefKind::NONE || kind == 0)
                        return;
                    if (kind == 2) {
                        wSlots.push_back(idx);
                        ++slotWrites;
                    } else {
                        wPreds.push_back(idx);
                    }
                };
                recDst(m.k0, m.pdKind0, m.pdIdx0);
                recDst(m.k1, m.pdKind1, m.pdIdx1);
            } else if (m.handler == ExecHandler::STORE) {
                sawStore = true;
            } else if (m.dstReg >= 0) {
                wRegs.push_back(m.dstReg);
            }
            MicroOp copy = m;
            copy.alwaysExec = m.guard == kNoPred &&
                              !(slotMode_ && m.sensitive);
            if (slotMode_ && m.sensitive) {
                ++tr.sensitivePerIter;
                ++tb.sensOps;
            }
            tr.ops.push_back(copy);
        }
        // Two slot writes in one cycle trip a conflict assert on the
        // two-phase path; keep that diagnosable.
        if (slotWrites >= 2)
            direct = false;
        tb.count =
            static_cast<std::uint32_t>(tr.ops.size()) - tb.first;
        tb.direct = direct;
        tr.bundles.push_back(tb);
        tr.opsPerIter += static_cast<std::uint64_t>(bu.sizeOps);
    }

    tr.state = LoopTrace::State::Ready;
    ++stats_.builds;
    if (tr.predicated)
        ++stats_.predReplay.builds;
}

ReplayResult
VliwSim::replayResident(LoopCtx &ctx, const DecodedFunction &df,
                        std::int64_t *regs, std::uint8_t *preds)
{
    TraceCache &tc = *traceCache_;
    LoopTrace &tr = tc.acquire(ctx, df);
    if (tr.state != LoopTrace::State::Ready) {
        // Once per activation, not once per iteration arrival.
        if (!ctx.traceDeclined) {
            ctx.traceDeclined = true;
            tc.countBailout(ctx.loopId, tr.reason);
        }
        return {};
    }

    obs::prof::ScopedRegion profRegion(
        obs::prof::Region::SimReplay);
    TraceCacheStats &tcs = tc.stats();
    ++tcs.replays;
    LoopStats &ls = stats_.loops[ctx.loopId];
    const bool slotMode = tc.slotMode();
    std::uint8_t *const slotPred = slotPred_.data();

    auto readSrc = [&](const XSrc &s) -> std::int64_t {
        if (s.kind == XSrc::REG)
            return regs[s.idx];
        if (s.kind == XSrc::IMM)
            return s.imm;
        return preds[s.idx];
    };

    // Deferred writes for bundles the build could not prove
    // direct-committable — same shapes as the executor body.
    struct RegWrite { std::int32_t r; std::int64_t v; };
    struct PredWrite { std::int32_t p; std::uint8_t v; };
    struct SlotWrite { std::int32_t s; std::uint8_t v; };
    struct MemWrite { Opcode op; std::int64_t addr; std::int64_t v; };
    RegWrite regW[Machine::width];
    PredWrite predW[2 * Machine::width];
    SlotWrite slotW[2 * Machine::width];
    MemWrite memW[Machine::width];

    auto storeBytes = [&](Opcode op, std::int64_t addr,
                          std::int64_t v) {
        const size_t need = op == Opcode::ST_B ? 1
                            : op == Opcode::ST_H ? 2 : 4;
        LBP_ASSERT(addr >= 0 && static_cast<size_t>(addr) + need <=
                                    mem_.size(),
                   "store fault @", addr);
        for (size_t k = 0; k < need; ++k) {
            mem_[addr + k] = static_cast<std::uint8_t>(
                (v >> (8 * k)) & 0xff);
        }
    };

    const MicroOp *const opBase = tr.ops.data();
    const MicroOp *const beOp = opBase + tr.beOpIndex;
    const TraceBundle *const buBase = tr.bundles.data();
    const std::size_t nBundles = tr.bundles.size();

    // Control outcome of the current iteration, set by the control
    // handlers. The backedge sits in the last bundle, so only a taken
    // side exit can end an iteration early.
    bool sawControl = false;
    bool backTaken = false;
    bool backFell = false;
    bool countedExit = false;
    bool wloopExit = false;
    bool sideTaken = false;
    BlockId sideTgt = kNoBlock;

    // Run one iteration and return how many bundles it issued: all of
    // them, unless a taken side exit stopped it after its own bundle.
    auto execIteration = [&]() -> std::size_t {
        LBP_DISPATCH_TABLE();
        for (std::size_t bi = 0; bi < nBundles; ++bi) {
            const TraceBundle &tb = buBase[bi];
            const bool direct = tb.direct;
            int nRegW = 0, nPredW = 0, nSlotW = 0, nMemW = 0;

            for (const MicroOp *m = opBase + tb.first,
                               *const end = m + tb.count;
                 m != end; ++m) {
                if (!m->alwaysExec) {
                    bool exec;
                    if (slotMode && m->sensitive)
                        exec = slotPred[m->slot] != 0;
                    else
                        exec = m->guard == kNoPred ||
                               preds[m->guard] != 0;
                    if (!exec &&
                        m->handler != ExecHandler::PRED_DEF) {
                        ++stats_.opsNullified;
                        // Nullified branches still count as branches
                        // on the general path (isBranch covers BR /
                        // JUMP / BR_CLOOP / BR_WLOOP); a nullified
                        // backedge means the iteration falls through
                        // it and the activation stays live.
                        if (m->handler == ExecHandler::BR ||
                            m->handler == ExecHandler::JUMP ||
                            m->handler == ExecHandler::BR_CLOOP) {
                            ++stats_.branches;
                            if (m == beOp)
                                backFell = true;
                        }
                        continue;
                    }
                }

                LBP_DISPATCH(m->handler) {
                  LBP_HANDLER(PRED_DEF) {
                    bool g;
                    if (m->alwaysExec) {
                        g = true;
                    } else if (slotMode && m->sensitive) {
                        g = slotPred[m->slot] != 0;
                    } else if (m->guard != kNoPred) {
                        g = preds[m->guard] != 0;
                    } else {
                        g = true;
                    }
                    const std::int64_t a = readSrc(m->src[0]);
                    const std::int64_t b = readSrc(m->src[1]);
                    const bool c = evalCond(m->cond, a, b);
                    auto apply = [&](PredDefKind k,
                                     std::uint8_t dKind,
                                     std::int32_t dIdx) {
                        if (k == PredDefKind::NONE || dKind == 0)
                            return;
                        int w = -1;
                        switch (k) {
                          case PredDefKind::UT:
                            w = g ? (c ? 1 : 0) : 0;
                            break;
                          case PredDefKind::UF:
                            w = g ? (c ? 0 : 1) : 0;
                            break;
                          case PredDefKind::OT:
                            if (g && c) w = 1;
                            break;
                          case PredDefKind::OF:
                            if (g && !c) w = 1;
                            break;
                          case PredDefKind::AT:
                            if (g && !c) w = 0;
                            break;
                          case PredDefKind::AF:
                            if (g && c) w = 0;
                            break;
                          case PredDefKind::CT:
                            if (g) w = c;
                            break;
                          case PredDefKind::CF:
                            if (g) w = !c;
                            break;
                          default:
                            LBP_PANIC("bad def kind");
                        }
                        if (w < 0)
                            return;
                        if (dKind == 2) {
                            if (direct)
                                slotPred[dIdx] =
                                    static_cast<std::uint8_t>(w);
                            else
                                slotW[nSlotW++] =
                                    {dIdx,
                                     static_cast<std::uint8_t>(w)};
                        } else {
                            if (direct)
                                preds[dIdx] =
                                    static_cast<std::uint8_t>(w);
                            else
                                predW[nPredW++] =
                                    {dIdx,
                                     static_cast<std::uint8_t>(w)};
                        }
                    };
                    apply(m->k0, m->pdKind0, m->pdIdx0);
                    apply(m->k1, m->pdKind1, m->pdIdx1);
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(LOAD) {
                    const std::int64_t addr =
                        readSrc(m->src[0]) + readSrc(m->src[1]);
                    const size_t need = m->op == Opcode::LD_B ? 1
                                        : m->op == Opcode::LD_H ? 2
                                                                : 4;
                    std::int64_t v = 0;
                    const bool oob =
                        addr < 0 ||
                        static_cast<size_t>(addr) + need >
                            mem_.size();
                    if (oob) {
                        LBP_ASSERT(m->speculative,
                                   "non-speculative load fault @",
                                   addr);
                        v = 0;
                    } else {
                        std::uint32_t raw = 0;
                        for (size_t i = 0; i < need; ++i) {
                            raw |= static_cast<std::uint32_t>(
                                       mem_[addr + i])
                                   << (8 * i);
                        }
                        v = m->op == Opcode::LD_B
                                ? static_cast<std::int8_t>(raw)
                            : m->op == Opcode::LD_H
                                ? static_cast<std::int16_t>(raw)
                                : static_cast<std::int32_t>(raw);
                    }
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(STORE) {
                    const std::int64_t addr =
                        readSrc(m->src[0]) + readSrc(m->src[1]);
                    const std::int64_t v = readSrc(m->src[2]);
                    if (direct)
                        storeBytes(m->op, addr, v);
                    else
                        memW[nMemW++] = {m->op, addr, v};
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(MOV) {
                    const std::int64_t v = readSrc(m->src[0]);
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(ABS) {
                    const std::int64_t v = wrapAbs(readSrc(m->src[0]));
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(ITOF) {
                    const std::int64_t v = asBits(
                        static_cast<double>(readSrc(m->src[0])));
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(FTOI) {
                    const std::int64_t v =
                        ftoi(asDouble(readSrc(m->src[0])));
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(SELECT) {
                    const std::int64_t c = readSrc(m->src[0]);
                    const std::int64_t v = c ? readSrc(m->src[1])
                                             : readSrc(m->src[2]);
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(ALU) {
                    const std::int64_t v = evalBinaryAlu(
                        m->op, m->cond, readSrc(m->src[0]),
                        readSrc(m->src[1]));
                    if (direct)
                        regs[m->dstReg] = v;
                    else
                        regW[nRegW++] = {m->dstReg, v};
                    LBP_NEXT_OP;
                  }

                  // Control ops: the activation's own backedge (at
                  // beOp) plus side exits. Each mirrors the general
                  // path's handler semantics exactly; taken transfers
                  // are resolved by the driver after the bundle
                  // commits, like the general path's end-of-bundle
                  // redirect.
                  LBP_HANDLER(BR) {
                    ++stats_.branches;
                    const std::int64_t a = readSrc(m->src[0]);
                    const std::int64_t b = readSrc(m->src[1]);
                    const bool taken = evalCond(m->cond, a, b);
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

            if (!direct) {
                for (int i = 0; i < nRegW; ++i)
                    regs[regW[i].r] = regW[i].v;
                for (int i = 0; i < nPredW; ++i)
                    preds[predW[i].p] = predW[i].v;
                for (int i = 0; i < nSlotW; ++i) {
                    for (int j = i + 1; j < nSlotW; ++j) {
                        LBP_ASSERT(slotW[i].s != slotW[j].s ||
                                       slotW[i].v == slotW[j].v,
                                   "conflicting same-cycle slot-"
                                   "predicate writes");
                    }
                    slotPred[slotW[i].s] = slotW[i].v;
                }
                for (int i = 0; i < nMemW; ++i)
                    storeBytes(memW[i].op, memW[i].addr, memW[i].v);
            }
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
    std::uint64_t bundlesIssued = 0;
    std::uint64_t opsIssued = 0;
    std::uint64_t sensIssued = 0;
    ReplayOutcome outcome;
    for (;;) {
        sawControl = backTaken = backFell = false;
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
        LBP_ASSERT(backFell, "replay iteration without a backedge");
        outcome = ReplayOutcome::BackedgeFellThrough;
        break;
    }

    stats_.bundles += bundlesIssued;
    stats_.cycles += bundlesIssued;
    cycleStack_.charge(ctx.loopId,
                       obs::CycleClass::IssueFromTraceReplay,
                       bundlesIssued);
    stats_.opsFetched += opsIssued;
    stats_.opsFromBuffer += opsIssued;
    ls.opsFromBuffer += opsIssued;
    if (slotMode)
        stats_.opsSensitive += sensIssued;

    tcs.replayedIterations += iters;
    tcs.replayedOps += opsIssued;
    TraceCacheStats::PerLoop &pl = tcs.perLoop[ctx.loopId];
    ++pl.replays;
    pl.iterations += iters;
    pl.ops += opsIssued;
    if (tr.predicated) {
        ++tcs.predReplay.replays;
        tcs.predReplay.iterations += iters;
        tcs.predReplay.ops += opsIssued;
        if (outcome == ReplayOutcome::SideExit)
            ++tcs.predReplay.sideExits;
        else if (outcome == ReplayOutcome::BackedgeFellThrough)
            ++tcs.predReplay.backedgeFallthroughs;
    }

    ReplayResult rr;
    rr.outcome = outcome;
    rr.resumeBundle = static_cast<std::uint32_t>(nBundles);
    rr.sideTarget = sideTgt;
    rr.ctxDone = countedExit || wloopExit;
    rr.whileExit = wloopExit;
    return rr;
}

} // namespace lbp
