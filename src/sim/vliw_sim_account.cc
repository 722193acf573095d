/**
 * @file
 * Simulate once, account many: the activation-stream recorder, the
 * buffer-model accountant and the DecodedImage memo that connects
 * them.
 *
 * A buffer-size sweep over one shared image executes the program
 * once per PredMode. That run records an ActivationStream; every
 * later point replays the stream through VliwSim::account, which
 * re-makes only the size-dependent decisions — residency, fetch
 * source, loop-control penalties, trace-cache engagement — through
 * the same members the decoded engine calls (enterLoop, loopBack,
 * whileExit, chargeFetch, chargeRedirect, engageTrace, chargeReplay,
 * retireLoopStats), against this sim's own LoopBuffer and
 * TraceCache. The size-independent datapath totals are copied from
 * the stream.
 */

#include "obs/prof.hh"
#include "sim/account.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "support/logging.hh"

namespace lbp
{

// ---- Recorder -------------------------------------------------------

std::uint64_t
ActivationRecorder::headBundlesNow() const
{
    return stats_.bundles -
           cs_.row(-1)[static_cast<std::size_t>(
               obs::CycleClass::IssueFromMemory)];
}

std::uint64_t
ActivationRecorder::topOpsNow() const
{
    if (stack_.empty())
        return 0;
    const LoopStats &ls =
        stats_.loops[static_cast<std::size_t>(stack_.back())];
    return ls.opsFromBuffer + ls.opsFromCache;
}

void
ActivationRecorder::take(ActivationEvent &e)
{
    e.headBundles = headBundlesNow() - snapBundles_;
    e.headOps = topOpsNow() - snapOps_;
    snapBundles_ += e.headBundles;
    snapOps_ += e.headOps;
}

void
ActivationRecorder::push(const ActivationEvent &e)
{
    std::vector<ActivationEvent> &ev = out_.events;
    // The previous event is final now (an arrival can no longer fold
    // into it): collapse it into an identical run of loop-backs.
    if (ev.size() >= 2) {
        ActivationEvent &last = ev.back();
        ActivationEvent &prev = ev[ev.size() - 2];
        if (last.kind == ActivationEvent::Kind::Back &&
            prev.kind == ActivationEvent::Kind::Back &&
            last.flags == prev.flags &&
            last.headBundles == prev.headBundles &&
            last.headOps == prev.headOps &&
            static_cast<std::uint64_t>(prev.repeat) + last.repeat <=
                UINT32_MAX) {
            prev.repeat += last.repeat;
            ev.pop_back();
        }
    }
    ev.push_back(e);
}

void
ActivationRecorder::enter(FuncId f, std::uint32_t op, int loopId,
                          std::int64_t count)
{
    ActivationEvent e;
    e.kind = ActivationEvent::Kind::Enter;
    take(e);
    push(e);
    out_.enters.push_back({f, op, count});
    stack_.push_back(loopId);
    snapOps_ = topOpsNow();
}

void
ActivationRecorder::arrive(bool side)
{
    ActivationEvent e;
    e.kind = ActivationEvent::Kind::Arrive;
    take(e);
    // The usual arrival is a loop-back landing on bundle 0: fold it
    // into the backedge event just recorded.
    std::vector<ActivationEvent> &ev = out_.events;
    if (!side && e.headBundles == 0 && e.headOps == 0 && !ev.empty() &&
        ev.back().kind == ActivationEvent::Kind::Back &&
        !(ev.back().flags & ActivationEvent::kArrives)) {
        ev.back().flags |= ActivationEvent::kArrives;
        return;
    }
    if (side)
        e.flags = ActivationEvent::kSide;
    push(e);
}

void
ActivationRecorder::back()
{
    ActivationEvent e;
    e.kind = ActivationEvent::Kind::Back;
    take(e);
    push(e);
}

void
ActivationRecorder::loopBacks(std::uint64_t n, std::uint64_t bundles,
                              std::uint64_t ops)
{
    while (n > 0) {
        const std::uint64_t k = std::min<std::uint64_t>(n, UINT32_MAX);
        ActivationEvent e;
        e.kind = ActivationEvent::Kind::Back;
        e.flags = ActivationEvent::kArrives;
        e.repeat = static_cast<std::uint32_t>(k);
        e.headBundles = bundles;
        e.headOps = ops;
        snapBundles_ += k * bundles;
        snapOps_ += k * ops;
        push(e);
        n -= k;
    }
}

void
ActivationRecorder::exit(bool counted, bool side)
{
    ActivationEvent e;
    e.kind = counted ? ActivationEvent::Kind::CountedExit
                     : ActivationEvent::Kind::WhileExit;
    if (side)
        e.flags = ActivationEvent::kSide;
    take(e);
    push(e);
    lastExit_ = out_.events.size() - 1;
    lastExitBundle_ = stats_.bundles;
    stack_.pop_back();
    snapOps_ = topOpsNow();
}

void
ActivationRecorder::sideExitAfterExit()
{
    if (lastExit_ < out_.events.size() &&
        lastExitBundle_ == stats_.bundles)
        out_.events[lastExit_].flags |= ActivationEvent::kSide;
}

void
ActivationRecorder::cancel()
{
    ActivationEvent e;
    e.kind = ActivationEvent::Kind::Cancel;
    take(e);
    push(e);
    stack_.pop_back();
    snapOps_ = topOpsNow();
}

void
ActivationRecorder::plainRedirect(obs::CycleClass cls)
{
    if (cls == obs::CycleClass::CallReturnPenalty)
        ++out_.callReturnRedirects;
    else
        ++out_.takenBranchRedirects;
}

void
ActivationRecorder::finish()
{
    LBP_ASSERT(stack_.empty() && headBundlesNow() == snapBundles_,
               "activation stream left a loop open");
    // Settle the last run of loop-backs.
    push(ActivationEvent{});
    out_.events.pop_back();
    out_.events.shrink_to_fit();
    out_.enters.shrink_to_fit();
    out_.bundles = stats_.bundles;
    out_.opsFetched = stats_.opsFetched;
    out_.opsNullified = stats_.opsNullified;
    out_.opsSensitive = stats_.opsSensitive;
    out_.branches = stats_.branches;
    out_.branchesTaken = stats_.branchesTaken;
    out_.checksum = stats_.checksum;
    out_.returns = stats_.returns;
    out_.otherBundles = cs_.row(-1)[static_cast<std::size_t>(
        obs::CycleClass::IssueFromMemory)];
}

// ---- Sim side -------------------------------------------------------

void
VliwSim::notePlainRedirect(obs::CycleClass cls)
{
    recorder_->plainRedirect(cls);
}

bool
VliwSim::runWithMemo(const std::vector<std::int64_t> &args)
{
    const bool fresh = fresh_;
    fresh_ = false;
    if (!image_ || cfg_.engine != SimEngine::DECODED)
        return false;

    SimMemo &memo = *image_->memo;
    std::unique_lock<std::mutex> lock(memo.mu);
    std::shared_ptr<const ActivationStream> &slot =
        memo.slot[cfg_.predMode == PredMode::SLOT ? 1 : 0];
    if (slot) {
        if (slot->args != args || slot->maxBundles != cfg_.maxBundles)
            return false;
        const std::shared_ptr<const ActivationStream> s = slot;
        lock.unlock();
        account(*s);
        accounted_ = true;
        return true;
    }
    // Only a fresh sim records: its loop buffer and trace cache start
    // empty, like the self-check's below.
    if (!fresh)
        return false;

    auto stream = std::make_shared<ActivationStream>();
    stream->args = args;
    stream->maxBundles = cfg_.maxBundles;
    {
        ActivationRecorder recorder(stats_, cycleStack_, *stream);
        struct Detach
        {
            ActivationRecorder *&r;
            ~Detach() { r = nullptr; }
        } detach{recorder_};
        recorder_ = &recorder;
        execute(args);
        recorder.finish();
    }
    slot = stream;
    lock.unlock();

    // Self-check: the accountant must reproduce the run it was just
    // recorded from, on a fresh sim at the same configuration.
    VliwSim check(code_, cfg_, image_);
    const SimStats st = check.run(args);
    const TraceCacheStats *tcA = traceCacheStats();
    const TraceCacheStats *tcB = check.traceCacheStats();
    LBP_ASSERT(st == stats_ && check.cycleStack_ == cycleStack_ &&
                   check.buffer_ == buffer_ &&
                   (tcA == nullptr) == (tcB == nullptr) &&
                   (tcA == nullptr || *tcA == *tcB),
               "activation accountant diverged from its recording run");
    return true;
}

void
VliwSim::account(const ActivationStream &s)
{
    obs::prof::ScopedRegion profRegion(obs::prof::Region::SimAccount);

    // The datapath's totals, and the issue and redirects outside any
    // loop's control, do not depend on the allocation.
    stats_.bundles = s.bundles;
    stats_.opsFetched = s.opsFetched;
    stats_.opsNullified = s.opsNullified;
    stats_.opsSensitive = s.opsSensitive;
    stats_.branches = s.branches;
    stats_.branchesTaken = s.branchesTaken;
    stats_.checksum = s.checksum;
    stats_.returns = s.returns;
    chargeFetch(-1, false, s.otherBundles, 0);
    chargeRedirect(obs::CycleClass::TakenBranchPenalty, -1,
                   s.takenBranchRedirects);
    chargeRedirect(obs::CycleClass::CallReturnPenalty, -1,
                   s.callReturnRedirects);

    /** One live activation and its trace-replay engagement, if any. */
    struct Act
    {
        LoopCtx ctx;
        const DecodedFunction *df = nullptr;
        const LoopTrace *tr = nullptr;  ///< engaged trace (null: none)
        std::uint64_t iters = 0, bundles = 0, ops = 0;
        std::uint64_t itBundles = 0, itOps = 0; ///< current iteration
    };
    std::vector<Act> stack;

    auto endReplay = [&](Act &a, ReplayOutcome outcome) {
        a.bundles += a.itBundles;
        a.ops += a.itOps;
        chargeReplay(a.ctx, *a.tr, a.iters, a.bundles, a.ops, outcome);
        a.tr = nullptr;
        a.iters = a.bundles = a.ops = a.itBundles = a.itOps = 0;
    };
    // Head-block issue of the innermost activation. An engaged
    // replay covers each iteration up to its backedge bundle; issue
    // past it means the backedge was nullified and fell through.
    auto issue = [&](std::uint64_t bundles, std::uint64_t ops) {
        if (bundles == 0 && ops == 0)
            return;
        LBP_ASSERT(!stack.empty(), "head issue outside any activation");
        Act &a = stack.back();
        if (a.tr) {
            const std::uint64_t room = a.tr->bundleCount - a.itBundles;
            if (bundles <= room) {
                a.itBundles += bundles;
                a.itOps += ops;
                return;
            }
            const std::uint64_t roomOps = a.tr->opsPerIter - a.itOps;
            a.itBundles += room;
            a.itOps += roomOps;
            endReplay(a, ReplayOutcome::BackedgeFellThrough);
            bundles -= room;
            ops -= roomOps;
        }
        chargeFetch(a.ctx.loopId, a.ctx.fromBuffer, bundles, ops);
    };
    // The engine's arrival test at head bundle 0.
    auto arrive = [&](Act &a) {
        if (traceCache_ && !a.tr && a.ctx.fromBuffer &&
            !a.ctx.traceDeclined)
            a.tr = engageTrace(a.ctx, *a.df);
    };

    std::size_t nextEnter = 0;
    for (const ActivationEvent &e : s.events) {
        if (e.kind != ActivationEvent::Kind::Back)
            issue(e.headBundles, e.headOps);
        switch (e.kind) {
          case ActivationEvent::Kind::Enter: {
            // Anything but a backedge, exit or side exit ends an
            // engaged iteration as a fall-through.
            if (!stack.empty() && stack.back().tr)
                endReplay(stack.back(),
                          ReplayOutcome::BackedgeFellThrough);
            const ActivationStream::EnterInfo &in =
                s.enters[nextEnter++];
            Act a;
            a.df = &decoded_->functions[in.func];
            a.ctx = enterLoop(a.df->ops[in.op], in.count);
            if (a.ctx.isExec && !a.ctx.fromBuffer)
                chargeRedirect(obs::CycleClass::LoopControlOverhead,
                               a.ctx.loopId);
            stack.push_back(a);
            break;
          }

          case ActivationEvent::Kind::Arrive: {
            Act &a = stack.back();
            if (a.tr)
                endReplay(a, e.flags & ActivationEvent::kSide
                                 ? ReplayOutcome::SideExit
                                 : ReplayOutcome::BackedgeFellThrough);
            arrive(a);
            break;
          }

          case ActivationEvent::Kind::Back: {
            // e.repeat whole iterations, each issuing the event's
            // head bundles and ops. Step one iteration at a time
            // until neither the fetch source nor the replay
            // engagement can change (at most two steps), then take
            // the rest of the run at once.
            Act &a = stack.back();
            LBP_ASSERT(a.itBundles == 0,
                       "loop-back inside a partial replay iteration");
            const bool arrives = e.flags & ActivationEvent::kArrives;
            for (std::uint64_t n = e.repeat; n > 0;) {
                const bool stable =
                    (a.ctx.fromBuffer || !a.ctx.buffered) &&
                    (!traceCache_ || !arrives || a.tr ||
                     a.ctx.traceDeclined || !a.ctx.fromBuffer);
                const std::uint64_t k = stable ? n : 1;
                if (a.tr) {
                    LBP_ASSERT(e.headBundles == a.tr->bundleCount,
                               "replayed iteration is not the trace");
                    a.iters += k;
                    a.bundles += k * e.headBundles;
                    a.ops += k * e.headOps;
                } else {
                    chargeFetch(a.ctx.loopId, a.ctx.fromBuffer,
                                k * e.headBundles, k * e.headOps);
                }
                if (a.ctx.counted)
                    a.ctx.remaining -= static_cast<std::int64_t>(k);
                if (!loopBack(a.ctx, k))
                    chargeRedirect(obs::CycleClass::LoopControlOverhead,
                                   a.ctx.loopId, k);
                if (arrives)
                    arrive(a);
                n -= k;
            }
            break;
          }

          case ActivationEvent::Kind::CountedExit:
          case ActivationEvent::Kind::WhileExit: {
            Act a = stack.back();
            stack.pop_back();
            const bool counted =
                e.kind == ActivationEvent::Kind::CountedExit;
            if (a.tr) {
                ++a.iters;
                endReplay(a, e.flags & ActivationEvent::kSide
                                 ? ReplayOutcome::SideExit
                             : counted ? ReplayOutcome::CountedDone
                                       : ReplayOutcome::WloopExit);
            }
            if (counted)
                countIteration(a.ctx);
            else
                whileExit(a.ctx);
            retireLoopStats(a.ctx);
            break;
          }

          case ActivationEvent::Kind::Cancel: {
            Act a = stack.back();
            stack.pop_back();
            if (a.tr)
                endReplay(a, ReplayOutcome::SideExit);
            retireLoopStats(a.ctx);
            break;
          }
        }
    }
    LBP_ASSERT(stack.empty() && nextEnter == s.enters.size(),
               "activation stream ended inside a loop");
}

} // namespace lbp
