/**
 * @file
 * Resident-loop trace cache for the decoded executor: the software
 * twin of the modeled loop buffer's replay mechanism.
 *
 * When the loop buffer reports a loop resident, the general decoded
 * path still re-walks the block table, re-checks fetch accounting and
 * re-dispatches every micro-op of every iteration. The trace cache
 * instead builds — once, at first replayed residency — a flattened
 * per-loop trace of the head-block bundles up to and including the
 * backedge, with per-op facts that are invariant for the whole
 * activation baked in (can the op ever be nullified; can the bundle
 * commit its writes directly), and then replays that trace whole
 * iteration after whole iteration, charging the per-iteration
 * counters once per iteration. Control is handed back to the general
 * path exactly at the bundle after the backedge (counted exit, while
 * exit, or a nullified backedge falling through), at the EXEC resume
 * point, or at a taken side exit's target.
 *
 * Safety gating happens entirely at build time. A body qualifies when
 * its only ops are straight-line (predicate defines, loads/stores,
 * moves/converts/select, the ALU family) or plain control: the loop's
 * own non-sensitive backedge, guarded or not, and side exits (BR/JUMP
 * leaving the loop). This is the paper's if-conversion applied to the
 * replay engine itself: one trace format covers every such shape. The
 * backedge always stays in the op stream, so its guard and condition
 * read live state in bundle order; a taken side exit ends the
 * iteration after its bundle commits and hands control back at the
 * same architectural point, with the same penalties and loop-context
 * cancellation the general path would apply. Still untraceable:
 * calls, nested loops, second backedges, slot-sensitive backedges —
 * each named by its own TraceBailoutReason so the scorecard keeps
 * saying which rule to widen next.
 *
 * Invalidation: when the loop buffer evicts a loop's image, the
 * trace dies with it (the hardware analogy: replay state cannot
 * outlive the image) and is rebuilt at the next residency.
 *
 * The replay loop itself is VliwSim::replayResident (trace_cache.cc) —
 * a member so it can touch the same state the executor body does; the
 * engine-differential test pins its SimStats bit-identical to both
 * the general decoded path and the reference interpreter.
 */

#ifndef LBP_SIM_TRACE_CACHE_HH
#define LBP_SIM_TRACE_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/decoded.hh"

namespace lbp
{

/**
 * Why a buffered activation declined trace replay. Closed taxonomy:
 * every bailout the cache counts carries exactly one of these, so the
 * scorecard can say per loop *which* gating rule to widen next instead
 * of a bare count. Mirrors the loop-shape taxonomy of "Hardware
 * Support for Arbitrarily Complex Loop Structures" (PAPERS.md).
 *
 * None is the build verdict "traceable" and never counts as a bailout.
 * Unknown is the defensive fallback; nothing in the tree produces it
 * (the all-workloads trace-cache test asserts it stays zero). Stale is
 * deliberately NOT a reason: an evicted trace revalidates O(1) at the
 * next residency and replays (see LoopTrace::State::Stale), so
 * staleness never declines an activation.
 */
enum class TraceBailoutReason : std::uint8_t
{
    None,                  ///< traceable — not a bailout
    Unknown,               ///< unclassified (must stay unreachable)
    EmptyBody,             ///< head block invalid or bundle-less
    NoHeadBackedge,        ///< loop backedge not in the head block
    SlotSensitiveBackedge, ///< backedge is slot-predicate sensitive
    CallInBody,            ///< body calls (or returns) — frame churn
    NestedLoop,            ///< body re-enters the loop machinery
    MultiBackedge,         ///< a second backedge to the head
    BelowEngageThreshold,  ///< counted trip < SimConfig::replayMinIters
    Count,
};

/** Stable lower-camel token for counters/columns ("callInBody"). */
const char *traceBailoutReasonName(TraceBailoutReason r);

/**
 * Side-band trace-cache counters. Deliberately NOT part of SimStats:
 * the reference engine never replays, so folding these into the
 * differentially-compared stats would break the bit-identical
 * contract. Published as sim.trace_cache.* registry counters.
 */
struct TraceCacheStats
{
    std::uint64_t builds = 0;        ///< traces built (incl. rebuilds)
    std::uint64_t replays = 0;       ///< engagements
    std::uint64_t bailouts = 0;      ///< activations declined
    std::uint64_t invalidations = 0; ///< traces dropped on image eviction
    std::uint64_t replayedIterations = 0;
    std::uint64_t replayedOps = 0;   ///< ops issued from traces

    /**
     * The share of the counters above from predicated traces — bodies
     * with a guarded backedge or side exits — plus their exit
     * taxonomy. Published as sim.trace_cache.pred_replay.*.
     */
    struct PredReplay
    {
        std::uint64_t builds = 0;     ///< predicated traces built
        std::uint64_t replays = 0;    ///< predicated engagements
        std::uint64_t iterations = 0; ///< full predicated iterations
        std::uint64_t ops = 0;        ///< ops issued predicated
        std::uint64_t sideExits = 0;  ///< replays ended by a taken exit
        /** Nullified-backedge hand-backs (activation stays live). */
        std::uint64_t backedgeFallthroughs = 0;
    };
    PredReplay predReplay;

    /** Per-reason split of bailouts; sums exactly to bailouts. */
    std::uint64_t bailoutsBy[static_cast<std::size_t>(
        TraceBailoutReason::Count)] = {};

    struct PerLoop
    {
        std::uint64_t replays = 0;
        std::uint64_t iterations = 0;
        std::uint64_t ops = 0;       ///< of LoopStats::opsFromBuffer
        std::uint64_t bailouts = 0;  ///< declined activations
        TraceBailoutReason lastReason = TraceBailoutReason::None;
    };
    std::vector<PerLoop> perLoop;    ///< indexed by dense loop id
};

/**
 * Accumulate @p from into @p into — every counter added, the per-loop
 * table grown to the larger id space, lastReason taken from @p from
 * when it carries one. Lets a buffer-size sweep aggregate one
 * TraceCacheStats across runs (the bench JSON's trace_cache block)
 * while per-run code passes a freshly zeroed struct and gets a copy.
 */
void accumulateTraceCacheStats(TraceCacheStats &into,
                               const TraceCacheStats &from);

/** One flattened bundle of a built trace. */
struct TraceBundle
{
    std::uint32_t first = 0;    ///< into LoopTrace::ops
    std::uint32_t count = 0;
    std::int32_t sizeOps = 0;   ///< fetch size
    /**
     * Slot-sensitive ops in the bundle (0 in REGISTER mode), summed
     * with sizeOps when a side exit ends an iteration mid-body.
     */
    std::int32_t sensOps = 0;
    /**
     * No op in the bundle reads register/predicate/slot state an
     * earlier op in the same bundle writes (and no load follows a
     * store), so writes can commit in place instead of through the
     * two-phase deferred-write buffers.
     */
    bool direct = false;
};

/** A per-loop flattened replay trace. */
struct LoopTrace
{
    enum class State : std::uint8_t
    {
        Unbuilt,
        Ready,
        /**
         * The loop buffer evicted the image this trace models. Trace
         * content is allocation-invariant (REC/EXEC ops — the only
         * bufAddr carriers — never survive the build gating), so
         * revalidation at the next residency is O(1); the state
         * exists so any future allocation-dependent trace content
         * has a correct hook, and so eviction-heavy workloads do not
         * pay a full rebuild per activation.
         */
        Stale,
        Untraceable,
    };
    State state = State::Unbuilt;
    /** Build verdict when Untraceable; None while traceable. */
    TraceBailoutReason reason = TraceBailoutReason::None;
    /**
     * The body has a guarded backedge or side exits. Replay is the
     * same; the flag only routes the counters into
     * TraceCacheStats::PredReplay.
     */
    bool predicated = false;

    std::vector<MicroOp> ops;        ///< body ops, backedge included
    std::vector<TraceBundle> bundles;///< head bundles 0..backedge
    std::uint32_t beOpIndex = 0;     ///< the backedge's position in ops

    std::uint64_t opsPerIter = 0;    ///< fetch-size sum per iteration
    std::uint64_t sensitivePerIter = 0; ///< SLOT-mode sensitive ops
};

struct LoopCtx;

/**
 * Static build-gating verdict for @p ctx's body in @p df: None means
 * the body is traceable, anything else names the first rule it fails.
 * Pure classification — no trace is built, no counters move. Exposed
 * so tests can probe the taxonomy against synthetic decoded images
 * without driving a full activation; TraceCache::build() derives its
 * Untraceable verdicts from exactly this function.
 */
TraceBailoutReason classifyTraceBody(const LoopCtx &ctx,
                                     const DecodedFunction &df);

/** Per-sim-instance trace store, keyed by interned dense loop id. */
class TraceCache
{
  public:
    TraceCache(std::size_t numLoops, bool slotMode);

    /**
     * The trace for @p ctx's loop, building it on first use. The
     * caller checks the returned state: Ready replays, Untraceable
     * falls back (countBailout once per activation).
     */
    LoopTrace &acquire(const LoopCtx &ctx, const DecodedFunction &df);

    /**
     * Mark @p loopId's built trace Stale because the loop buffer
     * evicted its image. Untraceable verdicts are static and survive
     * (a rebuild would re-derive them).
     */
    void invalidate(int loopId);

    /**
     * Count one declined activation of @p loopId for @p reason —
     * total, per reason, and per loop (the loop also remembers the
     * reason for the scorecard). Call sites dedupe per activation via
     * LoopCtx::traceDeclined so bailouts ≤ activations holds.
     */
    void countBailout(int loopId, TraceBailoutReason reason);

    /** Counter reset at run() start; built traces stay valid. */
    void resetRunStats();

    const TraceCacheStats &stats() const { return stats_; }
    TraceCacheStats &stats() { return stats_; }

    bool slotMode() const { return slotMode_; }

  private:
    void build(LoopTrace &tr, const LoopCtx &ctx,
               const DecodedFunction &df);

    std::vector<LoopTrace> traces_;
    TraceCacheStats stats_;
    bool slotMode_;
};

} // namespace lbp

#endif // LBP_SIM_TRACE_CACHE_HH
