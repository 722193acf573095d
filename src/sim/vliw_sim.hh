/**
 * @file
 * Functional, cycle-accounting simulator for scheduled VLIW code.
 *
 * Executes a SchedProgram bundle by bundle with two-phase (read all,
 * then commit) bundle semantics, hardware-loop contexts driven by the
 * Table-3 buffer operations, and one of two predication
 * micro-architectures:
 *
 *  - REGISTER: a predicate register file consulted through each
 *    operation's guard operand (full predication, the costly scheme);
 *  - SLOT: per-issue-slot standing predicates set by slot-routed
 *    predicate defines; operations carry only a sensitivity bit
 *    (the paper's low-overhead scheme, §4.2).
 *
 * Timing model (paper §7 machine):
 *  - one bundle per cycle;
 *  - taken control transfers fetched from global memory pay the
 *    branch penalty; loop-backs executing from the loop buffer are
 *    free, and counted-loop exits from the buffer are predicted
 *    (free) while while-loop exits pay the penalty;
 *  - a pipelined (modulo-scheduled), buffered loop activation of N
 *    iterations retires in L + (N-1)*II cycles.
 */

#ifndef LBP_SIM_VLIW_SIM_HH
#define LBP_SIM_VLIW_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/cycle_stack.hh"
#include "sched/schedule.hh"
#include "sim/loop_buffer.hh"
#include "support/arena.hh"

namespace lbp
{

namespace obs
{
class TraceSink;
}

/** Predication micro-architecture selector. */
enum class PredMode
{
    REGISTER,
    SLOT,
};

/**
 * Execution engine selector.
 *
 * REFERENCE is the original switch-dispatched interpreter walking the
 * SchedProgram directly; DECODED runs the same semantics over a
 * one-time predecoded dense micro-op image (operands resolved, loop
 * keys interned). The two are differentially tested to produce
 * bit-identical SimStats.
 */
enum class SimEngine
{
    REFERENCE,
    DECODED,
};

/** Per-loop execution statistics (drives the Figure 5 traces). */
struct LoopStats
{
    LoopKey key;
    std::string name;
    int imageOps = 0;
    int bufAddr = -1;
    std::uint64_t activations = 0;
    std::uint64_t recordings = 0;
    std::uint64_t evictions = 0;       ///< images this loop lost
    std::uint64_t iterations = 0;
    std::uint64_t bufferIterations = 0;
    std::uint64_t opsFromBuffer = 0;   ///< body ops issued from buffer
    std::uint64_t opsFromCache = 0;    ///< body ops fetched from cache

    bool operator==(const LoopStats &o) const
    {
        return key == o.key && name == o.name &&
               imageOps == o.imageOps && bufAddr == o.bufAddr &&
               activations == o.activations &&
               recordings == o.recordings &&
               evictions == o.evictions &&
               iterations == o.iterations &&
               bufferIterations == o.bufferIterations &&
               opsFromBuffer == o.opsFromBuffer &&
               opsFromCache == o.opsFromCache;
    }
};

/** Aggregate execution statistics. */
struct SimStats
{
    std::uint64_t cycles = 0;
    std::uint64_t bundles = 0;
    std::uint64_t opsFetched = 0;
    std::uint64_t opsFromBuffer = 0;
    std::uint64_t opsNullified = 0;
    std::uint64_t opsSensitive = 0;   ///< slot mode: p-bit set
    std::uint64_t branches = 0;
    std::uint64_t branchesTaken = 0;
    std::uint64_t branchPenaltyCycles = 0;
    std::uint64_t checksum = 0;
    std::vector<std::int64_t> returns;

    /**
     * Per-loop statistics, indexed by dense loop id. Ids are assigned
     * by sorting the static REC/EXEC LoopKeys, so index order equals
     * the LoopKey order the old std::map iterated in. Entries exist
     * for every static loop; use activeLoops() for the ones that ran.
     */
    std::vector<LoopStats> loops;

    /** The loops with at least one activation, in LoopKey order. */
    std::vector<const LoopStats *> activeLoops() const
    {
        std::vector<const LoopStats *> out;
        for (const auto &ls : loops)
            if (ls.activations > 0)
                out.push_back(&ls);
        return out;
    }

    double bufferFraction() const
    {
        return opsFetched ? static_cast<double>(opsFromBuffer) /
                                static_cast<double>(opsFetched)
                          : 0.0;
    }
};

/**
 * Resident-loop trace cache control (decoded engine only).
 *
 * Auto — the default — enables the cache unless the
 * LBP_SIM_NO_TRACE_CACHE environment variable is set non-empty (the
 * scripts/check.sh hook for exercising the general path under
 * sanitizers). On/Off force it regardless of the environment, which
 * the differential tests use to pin both paths.
 */
enum class TraceCacheMode
{
    Auto,
    On,
    Off,
};

/**
 * Counted loops engage replay only with at least this many iterations
 * left (the default for SimConfig::replayMinIters). While loops cannot
 * know their trip count and always engage. Tuned on the registry
 * sweep when a trace was a cold second copy of the body's micro-ops:
 * mpg123's 2-trip synthesis windows regressed ~2.5x ungated, the
 * 5–7-trip mpeg2/jpeg kernels still won gated at 4. Traces now replay
 * the decoded image in place; the value also decides which
 * activations replay, and so the trace-cache counters the bench
 * baselines record.
 */
constexpr std::int64_t kMinCountedReplayIters = 4;

/** Simulator configuration. */
struct SimConfig
{
    int bufferOps = 256;     ///< loop buffer capacity in operations
    /**
     * SLOT is the universally-correct default: sensitive (lowered)
     * operations consult their slot's standing predicate while
     * unlowered guarded operations still read the predicate register
     * file. REGISTER mode is only valid for code compiled without
     * slot lowering (slot-routed defines bypass the register file).
     */
    PredMode predMode = PredMode::SLOT;
    int branchPenalty = 4;
    std::uint64_t maxBundles = 4'000'000'000ull;

    /**
     * DECODED is the production fast path; REFERENCE is kept as the
     * differential-testing oracle (bit-identical stats guaranteed).
     */
    SimEngine engine = SimEngine::DECODED;

    /** Resident-loop trace cache (see TraceCacheMode). */
    TraceCacheMode traceCache = TraceCacheMode::Auto;

    /**
     * Minimum remaining iterations for a counted loop to engage trace
     * replay (see kMinCountedReplayIters for the tuning rationale).
     */
    std::int64_t replayMinIters = kMinCountedReplayIters;

    /**
     * Cycle-level event tracing (obs/trace.hh), a reference-engine
     * feature: a non-null sink runs the REFERENCE engine whatever
     * `engine` says. The decoded engine has no emission sites; it
     * would emit the identical event stream, and traced runs are
     * compile-bound, so a second, hooked copy of its hot loop would
     * buy nothing. SimStats and the collapsed cycle stack match an
     * untraced DECODED run; only the trace-cache side counters
     * (traceCacheStats) are absent. Null — the default — costs one
     * predicted branch per reference-engine emission site.
     */
    obs::TraceSink *trace = nullptr;
};

struct DecodedProgram;
struct DecodedFunction;
struct DecodedImage;
struct LoopTable;
class TraceCache;
struct TraceCacheStats;

/**
 * One live hardware-loop activation. Namespace-scope (not nested in
 * VliwSim) because the trace-cache replay loop operates on it too.
 */
struct LoopCtx
{
    LoopKey key;
    int loopId = -1;          ///< dense id into SimStats.loops
    bool counted = false;
    std::int64_t remaining = 0;
    BlockId head = kNoBlock;
    bool buffered = false;    ///< image has a buffer address
    bool fromBuffer = false;  ///< current fetches hit the buffer
    bool pipelined = false;
    int bodyLen = 0;          ///< schedule length L
    int ii = 0;
    int minII = 0;            ///< max(ResMII, RecMII) when pipelined
    std::uint64_t iterations = 0;
    // Resume point for EXEC-entered loops.
    bool isExec = false;
    BlockId resumeBlock = kNoBlock;
    size_t resumeBundle = 0;
    /**
     * Trace cache already declined this activation (untraceable
     * body); dedupes the per-activation bailout counter.
     */
    bool traceDeclined = false;
};

/** How one trace-cache replay engagement ended. */
enum class ReplayOutcome : std::uint8_t
{
    NotEngaged,  ///< untraceable body: general path runs the loop
    CountedDone, ///< counted exit — predicted, falls through free
    WloopExit,   ///< while exit from the buffer — mispredicted
    /**
     * A non-backedge branch in the body was taken. The caller mirrors
     * the general path's end-of-bundle redirect — loop-context
     * cancellation, the taken-branch penalty, and fetch resuming at
     * sideTarget bundle 0.
     */
    SideExit,
    /**
     * The guarded backedge was nullified, so the iteration fell
     * through it. The activation stays live and the general path
     * resumes at resumeBundle of the head block.
     */
    BackedgeFellThrough,
};

struct ReplayResult
{
    ReplayOutcome outcome = ReplayOutcome::NotEngaged;
    std::uint32_t resumeBundle = 0;  ///< head bundle after backedge
    BlockId sideTarget = kNoBlock;   ///< SideExit redirect target
    /**
     * SideExit only: the backedge also executed its exit in the same
     * bundle (counted count hit zero, or the while condition failed),
     * so the caller must retire the activation before taking the
     * side-exit redirect — exactly the order the general path's
     * backedge handler + end-of-bundle redirect produce.
     */
    bool ctxDone = false;
    /** With ctxDone: the exit was a while exit (pays the penalty). */
    bool whileExit = false;
};

/** The simulator. */
class VliwSim
{
  public:
    VliwSim(const SchedProgram &code, const SimConfig &cfg);

    /**
     * Run over a pre-built shared decode of the same program: @p image
     * must outlive the sim and stay in sync with @p code's buffer
     * allocation (rebindBufferAddresses after reallocateBuffers). The
     * batched bench sweep uses this to decode once per compile and
     * share the read-only image across a buffer-size sweep.
     */
    VliwSim(const SchedProgram &code, const SimConfig &cfg,
            const DecodedImage *image);

    ~VliwSim();

    /** Run the program's entry function; memory is re-imaged. */
    SimStats run(const std::vector<std::int64_t> &args = {});

    const LoopBuffer &buffer() const { return buffer_; }

    /**
     * Trace-cache side counters for the last run; null when the cache
     * is disabled (config, env override, or REFERENCE engine).
     */
    const TraceCacheStats *traceCacheStats() const;

    /**
     * Closed per-loop cycle accounting for the last run (side-band,
     * like TraceCacheStats — never part of the differentially
     * compared SimStats, because the IssueFromTraceReplay refinement
     * exists only in the decoded engine with the cache on). Totals
     * sum exactly to SimStats::cycles in every configuration.
     */
    const obs::CycleStack &cycleStack() const { return cycleStack_; }

  private:
    struct Frame
    {
        const Function *fn = nullptr;
        const SchedFunction *sf = nullptr;
        std::vector<std::int64_t> regs;
        std::vector<std::uint8_t> preds;
    };

    std::vector<std::int64_t> callFunction(FuncId f,
                                           const std::vector<std::int64_t>
                                               &args);

    /**
     * Decoded fast-path twin of callFunction (vliw_sim_decoded.cc),
     * without trace emission sites.
     */
    std::vector<std::int64_t> callFunctionDecoded(
        FuncId f, const std::vector<std::int64_t> &args);

    /**
     * Replay the resident loop on top of the loop stack from its
     * cached trace (trace_cache.cc). Called from the decoded body
     * when fetch arrives at the loop head's first bundle.
     * NotEngaged means the body is untraceable and the general path
     * must run it.
     */
    ReplayResult replayResident(LoopCtx &ctx,
                                const DecodedFunction &df,
                                std::int64_t *regs,
                                std::uint8_t *preds);

    std::int64_t readOperand(const Frame &fr, const Operand &o) const;
    bool opExecutes(const Frame &fr, const Operation &op,
                    int slot) const;

    /**
     * The single redirect charge site shared by both engines: the
     * cycle cost, the legacy branchPenaltyCycles counter, and the
     * cycle-stack attribution move together so class assignment
     * cannot drift between executors. @p loopRow is the dense loop id
     * the penalty belongs to (-1 = outside any loop).
     */
    void chargeRedirect(obs::CycleClass cls, int loopRow)
    {
        stats_.branchPenaltyCycles +=
            static_cast<std::uint64_t>(cfg_.branchPenalty);
        stats_.cycles +=
            static_cast<std::uint64_t>(cfg_.branchPenalty);
        cycleStack_.charge(
            loopRow, cls,
            static_cast<std::uint64_t>(cfg_.branchPenalty));
    }

    /**
     * Shared loop-retire accounting (vliw_sim.cc): fold @p ctx's
     * iteration count into its LoopStats, apply the pipelined-loop
     * cycle model (an N-iteration buffered activation retires in
     * L + (N-1)*II, so (N-1)*(L-II) issue cycles are uncharged), and
     * reclassify the per-iteration II-minus-minII gap as
     * SchedulerSlack. Engine-specific trace emission stays at the
     * call sites.
     */
    void retireLoopStats(LoopCtx &ctx);

    const SchedProgram &code_;
    SimConfig cfg_;
    LoopBuffer buffer_;
    std::vector<std::uint8_t> mem_;
    SimStats stats_;
    obs::CycleStack cycleStack_;
    std::uint64_t bundlesExecuted_ = 0;
    int callDepth_ = 0;

    /** Static loop-id interning shared by both engines. */
    const LoopTable *loopTable_ = nullptr;

    /** Predecoded image (built when cfg.engine == DECODED). */
    const DecodedProgram *decoded_ = nullptr;

    /** Backing storage when the image is not caller-shared. */
    std::unique_ptr<LoopTable> ownedLoopTable_;
    std::unique_ptr<DecodedProgram> ownedDecoded_;

    /** Resident-loop trace cache (null = disabled). */
    std::unique_ptr<TraceCache> traceCache_;

    /** Per-call frame storage for the decoded engine. */
    FrameArena arena_;

    /** Slot standing predicates (physical machine state). */
    std::array<std::uint8_t, Machine::width> slotPred_;
};

} // namespace lbp

#endif // LBP_SIM_VLIW_SIM_HH
