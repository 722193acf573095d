/**
 * @file
 * Closed simulated-cycle accounting: a CPI stack that attributes every
 * cycle of `SimStats::cycles` to exactly one `CycleClass`, per loop.
 *
 * The taxonomy is closed in two directions at once:
 *
 *   sum over classes of the workload stack == SimStats::cycles
 *   sum over per-loop rows (plus the outside-any-loop row)
 *                                          == the workload stack
 *
 * Both sums hold in both engines, with the trace cache forced on and
 * forced off; the engine-differential and all-workloads tests assert
 * them on every run.
 *
 * Classes:
 *
 *   IssueFromMemory      bundle issued with the fetch charged to the
 *                        instruction cache (not loop-buffer resident)
 *   IssueFromBuffer      bundle issued from the loop buffer image
 *   IssueFromTraceReplay bundle issued by the trace-cache replay path
 *                        (decoded engine, cache on — a refinement of
 *                        IssueFromBuffer; folding it back into
 *                        IssueFromBuffer recovers the engine-invariant
 *                        split, which is what the differential test
 *                        compares)
 *   TakenBranchPenalty   redirect cycles of plain taken branches and
 *                        jumps outside any loop-control transfer
 *   CallReturnPenalty    redirect cycles of CALL and RET
 *   WhileExitPenalty     the §3 while-loop exit penalty: a wloop
 *                        backedge resolving not-taken from the buffer
 *   LoopControlOverhead  redirect cycles of loop-control transfers —
 *                        taken backedges issued from memory and the
 *                        EXEC re-entry redirect (Kavvadias &
 *                        Nikolaidis's attributable loop-control cost)
 *   SchedulerSlack       per modulo-scheduled loop: (achieved II -
 *                        max(ResMII, RecMII)) cycles per steady-state
 *                        iteration, reclassified out of the issue
 *                        classes — the cycles an optimal scheduler
 *                        (Roorda's SMT formulation) could still
 *                        recover without touching the machine model
 *
 * Attribution is row-indexed: row 0 is "outside any loop", row i+1 is
 * dense loop id i (the SimStats::loops index). The hot-path cost is
 * one add into a flat array.
 */

#ifndef LBP_OBS_CYCLE_STACK_HH
#define LBP_OBS_CYCLE_STACK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbp
{
namespace obs
{

enum class CycleClass : std::uint8_t
{
    IssueFromMemory,
    IssueFromBuffer,
    IssueFromTraceReplay,
    TakenBranchPenalty,
    CallReturnPenalty,
    WhileExitPenalty,
    LoopControlOverhead,
    SchedulerSlack,
    Count,
};

constexpr std::size_t kNumCycleClasses =
    static_cast<std::size_t>(CycleClass::Count);

/** Stable lower-camel token for keys/columns ("issueFromBuffer"). */
const char *cycleClassName(CycleClass c);

/** One row of the stack: cycles per class. */
using CycleRow = std::array<std::uint64_t, kNumCycleClasses>;

class CycleStack
{
  public:
    /** Size for @p numLoops dense loop ids (+ the outside row). */
    void reset(std::size_t numLoops)
    {
        rows_.assign(numLoops + 1, CycleRow{});
    }

    /** Charge @p n cycles of @p cls to @p loopRow (-1 = outside). */
    void charge(int loopRow, CycleClass cls, std::uint64_t n)
    {
        rows_[static_cast<std::size_t>(loopRow + 1)]
             [static_cast<std::size_t>(cls)] += n;
    }

    /**
     * Remove @p n cycles of issue credit from @p loopRow, draining
     * the most specific class first (replay, then buffer, then
     * memory). This is the retire-time twin of the pipelined-loop
     * cycle subtraction: the simulator models a software-pipelined
     * buffered loop as costing II (not bodyLen) per steady-state
     * iteration by subtracting the difference when the loop retires,
     * and those subtracted cycles were charged as issue cycles.
     */
    void unchargeIssue(int loopRow, std::uint64_t n);

    /**
     * Move up to @p n issue cycles of @p loopRow (replay first, then
     * buffer) into SchedulerSlack: the achieved-II-minus-minII cycles
     * a better scheduler could recover. Only buffer-resident issue is
     * eligible — slack is a property of the pipelined kernel.
     */
    void reclassifySlack(int loopRow, std::uint64_t n);

    std::size_t numRows() const { return rows_.size(); }

    bool operator==(const CycleStack &o) const { return rows_ == o.rows_; }

    /** Row for @p loopRow (-1 = outside any loop). */
    const CycleRow &row(int loopRow) const
    {
        return rows_[static_cast<std::size_t>(loopRow + 1)];
    }

    /** Per-class totals over all rows: the workload stack. */
    CycleRow totals() const;

    /** Sum of every cell — must equal SimStats::cycles. */
    std::uint64_t totalCycles() const;

    /**
     * @p r with IssueFromTraceReplay folded into IssueFromBuffer —
     * the engine-invariant view (replay is a decoded-engine-only
     * refinement of buffer issue).
     */
    static CycleRow collapseReplay(const CycleRow &r);

  private:
    std::vector<CycleRow> rows_;  ///< [0] outside, [i+1] loop id i
};

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_CYCLE_STACK_HH
