/**
 * @file
 * The end-to-end compilation pipeline (paper §3/§7):
 *
 *   profile -> inline -> classic opts
 *     -> [Aggressive] peel -> if-convert -> collapse -> if-convert
 *        -> branch-combine -> promote -> classic opts
 *     -> counted-loop conversion
 *     -> schedule (modulo for simple loop bodies, list otherwise)
 *     -> [Aggressive+SLOT] slot-predication lowering
 *     -> buffer allocation -> link
 *
 * Two configurations mirror the paper's comparison: `Traditional`
 * (classic optimization only — no predication, no nested-loop
 * transformations) and `Aggressive` (the full hyperblock stack).
 * Every stage is checked: the transformed IR must reproduce the
 * original program's interpreter checksum (core/stage_verifier.hh).
 */

#ifndef LBP_CORE_COMPILER_HH
#define LBP_CORE_COMPILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/buffer_alloc.hh"
#include "core/slot_predication.hh"
#include "mach/machine.hh"
#include "obs/loop_report.hh"
#include "sched/schedule.hh"
#include "transform/branch_combine.hh"
#include "transform/counted_loop.hh"
#include "transform/if_convert.hh"
#include "transform/inliner.hh"
#include "transform/loop_collapse.hh"
#include "transform/loop_peel.hh"
#include "transform/promote.hh"
#include "transform/reassociate.hh"

namespace lbp
{

namespace obs
{
class Registry;
}

/** Optimization level. */
enum class OptLevel
{
    Traditional, ///< classic opts + modulo scheduling + buffering
    Aggressive,  ///< adds hyperblock formation, peel, collapse, ...
};

struct CompileOptions
{
    OptLevel level = OptLevel::Aggressive;
    bool doInline = true;
    bool moduloSchedule = true;
    bool slotLowering = true;   ///< only meaningful for Aggressive
    int bufferOps = 256;

    /**
     * Paper §7.1 extension: architected rotating registers remove the
     * modulo-variable-expansion growth of buffered kernel images.
     */
    bool rotatingRegisters = false;

    /**
     * Paper §7.3 extension: a per-slot predicate activation queue of
     * this depth lets standing-predicate live ranges span up to
     * (1 + depth) initiation intervals before falling back to the
     * register file.
     */
    int predQueueDepth = 0;
    bool verifyStages = true;   ///< re-interpret changed stages
    std::vector<std::int64_t> profileArgs;

    /**
     * Optional pipeline profiling: when set, every stage publishes a
     * scoped wall-clock timing ("compile.phase.<NN_stage>.ms") and
     * its static op-count delta into this registry, and stage
     * verification its counters ("compile.verify.*"). Null (the
     * default) keeps the pipeline observability-free.
     */
    obs::Registry *obsRegistry = nullptr;
};

/** Everything the pipeline produces. */
struct CompileResult
{
    Program ir;            ///< transformed IR (owns the program)
    SchedProgram code;     ///< scheduled code (points into `ir`)
    Machine machine;

    std::uint64_t goldenChecksum = 0;
    std::uint64_t transformedChecksum = 0;

    // Per-stage statistics.
    InlineStats inlineStats;
    PeelStats peelStats;
    IfConvertStats ifConvertStats;
    CollapseStats collapseStats;
    BranchCombineStats branchCombineStats;
    PromoteStats promoteStats;
    ReassociateStats reassocStats;
    CountedLoopStats countedLoopStats;
    SlotLoweringStats slotStats;
    BufferAllocResult bufferAlloc;

    /**
     * Per-loop decision log: every transform attempt, the scheduler's
     * modulo verdict, and buffer allocation's terminal fate, keyed by
     * the stable loop identity "function/headerBlock". Joined with
     * simulator residency stats by obs::buildLoopScorecard.
     */
    obs::LoopDecisionLog loopLog;

    int originalOps = 0;
    int finalOps = 0;      ///< static IR ops after transforms
    int scheduledOps = 0;  ///< static code size (compressed encoding)
    int moduloLoops = 0;   ///< loop bodies successfully pipelined
    int simpleLoops = 0;   ///< simple loop bodies found at scheduling

    // CompileResult owns `ir`, and `code.ir` points at it, so the
    // struct must not be copied/moved by value after `code` is linked.
    CompileResult() = default;
    CompileResult(const CompileResult &) = delete;
    CompileResult &operator=(const CompileResult &) = delete;
};

/**
 * Run the pipeline. Throws (fatal) on a stage checksum mismatch when
 * verifyStages is set, and on a final-profile mismatch regardless.
 */
void compileProgram(const Program &input, const CompileOptions &opts,
                    CompileResult &out);

/**
 * Re-run buffer allocation (and relink) for a different buffer size
 * without recompiling. Used by the buffer-size sweeps.
 */
void reallocateBuffers(CompileResult &result, int bufferOps);

} // namespace lbp

#endif // LBP_CORE_COMPILER_HH
