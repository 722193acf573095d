/**
 * @file
 * Backward live-variable analysis over general and predicate
 * registers, used by dead-code elimination and by the slot-predication
 * lowering (predicate live ranges).
 *
 * Register and predicate ids are dense per function, so the live sets
 * are bitsets (support/dense_set.hh) and the per-op visitors below
 * walk an operation's operands in place.
 */

#ifndef LBP_ANALYSIS_LIVENESS_HH
#define LBP_ANALYSIS_LIVENESS_HH

#include <vector>

#include "ir/function.hh"
#include "support/dense_set.hh"

namespace lbp
{

using RegSet = DenseIdSet<RegId>;
using PredSet = DenseIdSet<PredId>;

/** Per-block live-in/live-out register sets. */
class Liveness
{
  public:
    explicit Liveness(const Function &fn);

    const RegSet &liveIn(BlockId b) const { return liveIn_[b]; }
    const RegSet &liveOut(BlockId b) const { return liveOut_[b]; }

    const PredSet &predLiveIn(BlockId b) const { return predLiveIn_[b]; }
    const PredSet &predLiveOut(BlockId b) const
    { return predLiveOut_[b]; }

    /** Call @p f with each general register @p op reads. */
    template <typename F>
    static void forEachUse(const Operation &op, F &&f)
    {
        for (const auto &s : op.srcs)
            if (s.isReg())
                f(s.asReg());
    }

    /** Call @p f with each register @p op writes. */
    template <typename F>
    static void forEachDef(const Operation &op, F &&f)
    {
        for (const auto &d : op.dsts)
            if (d.isReg())
                f(d.asReg());
    }

    /** Call @p f with each predicate @p op reads (guard first). */
    template <typename F>
    static void forEachPredUse(const Operation &op, F &&f)
    {
        if (op.guard != kNoPred)
            f(op.guard);
        for (const auto &s : op.srcs)
            if (s.isPred())
                f(s.asPred());
    }

    /** Call @p f with each predicate @p op writes. */
    template <typename F>
    static void forEachPredDef(const Operation &op, F &&f)
    {
        if (op.op != Opcode::PRED_DEF)
            return;
        for (const auto &d : op.dsts)
            if (d.isPred())
                f(d.asPred());
    }

  private:
    std::vector<RegSet> liveIn_, liveOut_;
    std::vector<PredSet> predLiveIn_, predLiveOut_;
};

} // namespace lbp

#endif // LBP_ANALYSIS_LIVENESS_HH
