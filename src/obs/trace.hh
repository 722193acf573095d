/**
 * @file
 * Cycle-level event tracing for the simulator. Only the reference
 * engine carries emission sites; a VliwSim given a sink runs on it
 * (SimConfig::trace).
 *
 * A TraceSink is a fixed-capacity single-writer ring buffer of POD
 * TraceEvents. The simulator is single-threaded per VliwSim instance
 * and traces are consumed after the run, so emission is a plain store
 * plus index bump — no locks, no atomics, nothing the hot path has to
 * wait on. When the ring fills, the oldest events are overwritten and
 * counted in dropped(); per-kind aggregate counters stay exact
 * regardless of overflow or sampling, so integral checks (e.g.
 * buffer-hit ops vs. SimStats::opsFromBuffer) never depend on ring
 * capacity.
 *
 * Overhead control: a null sink pointer short-circuits at a single
 * predictable branch per site; samplePeriod keeps 1/N of the
 * high-frequency kinds (Fetch, Branch, Nullify). Structural kinds
 * (BufHit, Loop*, Penalty) are never sampled out: buffer-hit events
 * are the paper's headline observable and their integral must stay
 * exact, and loop enter/exit pairs must stay balanced for the
 * residency timeline.
 *
 * Export: Chrome trace-event JSON (loads in Perfetto / about:tracing;
 * 1 simulated cycle = 1 microsecond of trace time) and a compact
 * per-loop residency timeline.
 */

#ifndef LBP_OBS_TRACE_HH
#define LBP_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace lbp
{
namespace obs
{

/** Trace format version (bump on event-schema changes). */
constexpr int kTraceSchemaVersion = 1;

enum class TraceKind : std::uint8_t
{
    Fetch,      ///< bundle issued from memory; a=ops, b=block
    BufHit,     ///< bundle issued from the loop buffer; a=ops, b=block
    LoopEnter,  ///< REC/EXEC activation; a=counted, b=entered resident
    LoopRecord, ///< recording started; a=bufAddr, b=imageOps
    LoopExit,   ///< activation retired; a=iterations, b=fromBuffer
    Branch,     ///< branch-unit op; a=taken, b=nullified
    Penalty,    ///< fetch-redirect stall; a=cycles, b=PenaltyWhy
    Nullify,    ///< op nullified; a=opcode, b=slot
};

constexpr int kTraceKindCount = 8;

/** Reason codes carried in Penalty events' b payload. */
enum PenaltyWhy : std::int64_t
{
    kPenaltyBranch = 0,
    kPenaltyCall = 1,
    kPenaltyReturn = 2,
    kPenaltyWloopExit = 3,
};

const char *traceKindName(TraceKind k);

/** One recorded event (POD; 32 bytes). */
struct TraceEvent
{
    std::uint64_t cycle = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int32_t loopId = -1;
    TraceKind kind = TraceKind::Fetch;

    bool operator==(const TraceEvent &o) const
    {
        return cycle == o.cycle && a == o.a && b == o.b &&
               loopId == o.loopId && kind == o.kind;
    }
};

class TraceSink
{
  public:
    /**
     * @p capacity ring slots (oldest overwritten on overflow), grown
     * on demand: a short run in a large ring holds only the events it
     * recorded. @p samplePeriod keeps one in N events of the sampled
     * kinds (1 = keep everything).
     */
    explicit TraceSink(std::size_t capacity = 1u << 20,
                       std::uint64_t samplePeriod = 1);

    void emit(TraceKind k, std::uint64_t cycle, std::int32_t loopId,
              std::int64_t a, std::int64_t b)
    {
        counts_[static_cast<int>(k)] += 1;
        sumA_[static_cast<int>(k)] += a;
        if (samplePeriod_ > 1 && isSampledKind(k) &&
            (++sampleSeq_ % samplePeriod_) != 0) {
            ++sampledOut_;
            return;
        }
        if (size_ == capacity_) {
            ++dropped_;
            ring_[head_] = {cycle, a, b, loopId, k};
            head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
            return;
        }
        // Until the ring first fills, head_ is 0 and the next slot is
        // the end of ring_.
        ring_.push_back({cycle, a, b, loopId, k});
        ++size_;
    }

    /** Kinds subject to samplePeriod thinning. */
    static bool isSampledKind(TraceKind k)
    {
        return k == TraceKind::Fetch || k == TraceKind::Branch ||
               k == TraceKind::Nullify;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    std::uint64_t samplePeriod() const { return samplePeriod_; }

    /** Events lost to ring overflow (oldest-first overwrites). */
    std::uint64_t dropped() const { return dropped_; }
    /** Events thinned out by sampling. */
    std::uint64_t sampledOut() const { return sampledOut_; }

    /** Exact per-kind aggregates (immune to overflow/sampling). */
    std::uint64_t countOf(TraceKind k) const
    { return counts_[static_cast<int>(k)]; }
    std::int64_t sumA(TraceKind k) const
    { return sumA_[static_cast<int>(k)]; }

    /** Recorded events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    void clear();

  private:
    std::vector<TraceEvent> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0;   ///< index of the oldest event
    std::size_t size_ = 0;
    std::uint64_t samplePeriod_;
    std::uint64_t sampleSeq_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t sampledOut_ = 0;
    std::uint64_t counts_[kTraceKindCount] = {};
    std::int64_t sumA_[kTraceKindCount] = {};
};

/** One loop activation interval recovered from enter/exit events. */
struct ResidencySpan
{
    std::int32_t loopId = -1;
    std::uint64_t enterCycle = 0;
    std::uint64_t exitCycle = 0;
    std::uint64_t iterations = 0;
    bool fromBuffer = false;   ///< retired issuing from the buffer
    bool recorded = false;     ///< this activation recorded its image
};

/**
 * Pair LoopEnter/LoopExit events into activation spans (per-loop
 * LIFO pairing; unbalanced enters yield open spans ending at the last
 * observed cycle).
 */
std::vector<ResidencySpan> residencyTimeline(const TraceSink &sink);

/**
 * Write Chrome trace-event JSON. @p loopNames maps dense loop id to
 * a display name (missing/short vectors fall back to "loop<id>").
 * Events are sorted by cycle; loop activations become duration
 * events on per-loop tracks, everything else instant/span events on
 * the fetch and control tracks.
 */
void writeChromeTrace(std::ostream &os, const TraceSink &sink,
                      const std::vector<std::string> &loopNames,
                      const std::string &processName = "lbp-sim");

} // namespace obs
} // namespace lbp

/** Emit one event when @p sink is non-null (one predicted branch). */
#define LBP_TRACE_EMIT(sink, kind, cycle, loopId, a, b)                     \
    do {                                                                    \
        if (sink)                                                           \
            (sink)->emit((kind), (cycle), (loopId), (a), (b));              \
    } while (0)

#endif // LBP_OBS_TRACE_HH
