#include "sched/modulo_scheduler.hh"

#include <algorithm>

#include "analysis/dependence.hh"
#include "support/dense_set.hh"
#include "support/logging.hh"

namespace lbp
{

int
computeResMII(const BasicBlock &bb, const Machine &machine)
{
    int total = 0;
    std::array<int, static_cast<size_t>(UnitClass::NUM_CLASSES)>
        perClass{};
    for (const auto &op : bb.ops) {
        if (op.op == Opcode::NOP)
            continue;
        ++total;
        ++perClass[static_cast<size_t>(unitClassOf(op.op))];
    }
    auto ceilDiv = [](int a, int b) { return (a + b - 1) / b; };
    int mii = std::max(1, ceilDiv(total, Machine::width));
    for (int u = 0; u < static_cast<int>(UnitClass::NUM_CLASSES); ++u) {
        const UnitClass uc = static_cast<UnitClass>(u);
        if (uc == UnitClass::IALU)
            continue; // IALU ops can use every slot (covered by total)
        const int cnt = perClass[u];
        if (cnt > 0)
            mii = std::max(mii, ceilDiv(cnt, machine.unitCount(uc)));
    }
    return mii;
}

namespace
{

/** Modulo reservation table: one op index (or -1) per row x slot. */
class MRT
{
  public:
    MRT(int ii) : ii_(ii), table_(ii * Machine::width, -1) {}

    int &at(int cycle, int slot)
    { return table_[mod(cycle) * Machine::width + slot]; }

    int mod(int cycle) const
    { return ((cycle % ii_) + ii_) % ii_; }

  private:
    int ii_;
    std::vector<int> table_;
};

struct ImsState
{
    std::vector<int> cycleOf;  // -1 = unscheduled
    std::vector<int> slotOf;
};

/**
 * The fixed scheduling priority of a loop body's real (non-NOP) ops:
 * height descending, then program order. Rank r is the r-th op in
 * that order, so the highest-priority op of any set is the one with
 * the lowest rank.
 */
struct Priority
{
    std::vector<int> heights; ///< per op (DepGraph::heights)
    std::vector<int> opAt;    ///< rank -> op index
    std::vector<int> rankOf;  ///< op index -> rank (-1 for NOPs)

    Priority(const BasicBlock &bb, const DepGraph &dg)
        : heights(dg.heights()), rankOf(dg.numOps(), -1)
    {
        for (int i = 0; i < dg.numOps(); ++i)
            if (bb.ops[i].op != Opcode::NOP)
                opAt.push_back(i);
        std::sort(opAt.begin(), opAt.end(), [&](int a, int b) {
            if (heights[a] != heights[b])
                return heights[a] > heights[b];
            return a < b;
        });
        for (size_t r = 0; r < opAt.size(); ++r)
            rankOf[opAt[r]] = static_cast<int>(r);
    }
};

/**
 * Attempt one II. Returns true and fills @p state on success.
 */
bool
tryScheduleII(const BasicBlock &bb, const DepGraph &dg,
              const Priority &prio, const Machine &machine, int ii,
              int budget, ImsState &state)
{
    const int n = dg.numOps();
    state.cycleOf.assign(n, -1);
    state.slotOf.assign(n, kNoSlot);
    MRT mrt(ii);
    const std::vector<int> &heights = prio.heights;

    // The worklist is the set of unscheduled ops, held by rank.
    DenseIdSet<unsigned> work(prio.opAt.size());
    for (size_t r = 0; r < prio.opAt.size(); ++r)
        work.insert(static_cast<unsigned>(r));
    auto enqueue = [&](int q) {
        work.insert(static_cast<unsigned>(prio.rankOf[q]));
    };

    std::vector<int> lastTried(n, -1);
    std::array<PredId, Machine::width> slotOwner{};
    slotOwner.fill(kNoPred);

    for (auto top = work.begin(); top != work.end(); top = work.begin()) {
        if (budget-- <= 0)
            return false;
        // Highest-priority unscheduled op.
        const unsigned rank = *top;
        work.erase(rank);
        const int op = prio.opAt[rank];

        // Earliest start from scheduled predecessors.
        int estart = 0;
        for (int eidx : dg.preds(op)) {
            const DepEdge &e = dg.edge(eidx);
            if (state.cycleOf[e.from] < 0)
                continue;
            estart = std::max(estart, state.cycleOf[e.from] +
                                          e.latency - ii * e.distance);
        }
        // Iterative restart rule: never retry the same cycle.
        int tmin = estart;
        if (lastTried[op] >= 0)
            tmin = std::max(tmin, lastTried[op] + 1);

        // Find a (cycle, slot) within [tmin, tmin + ii - 1].
        // Predicated consumers prefer slots owned by their guard
        // predicate and avoid foreign-owned slots (scheduler-side
        // cooperation with slot-based predication, paper section
        // 4.3).
        const UnitClass uc = unitClassOf(bb.ops[op].op);
        const PredId guard = bb.ops[op].guard;
        const auto &slots = machine.slotsFor(uc);
        int chosenT = -1, chosenSlot = kNoSlot;
        if (guard != kNoPred) {
            for (int pass = 0; pass < 2 && chosenT < 0; ++pass) {
                for (int t = tmin; t < tmin + ii && chosenT < 0;
                     ++t) {
                    for (auto it = slots.rbegin(); it != slots.rend();
                         ++it) {
                        const bool ownerOk =
                            pass == 0
                                ? slotOwner[*it] == guard
                                : slotOwner[*it] == kNoPred;
                        if (ownerOk && mrt.at(t, *it) < 0) {
                            chosenT = t;
                            chosenSlot = *it;
                            break;
                        }
                    }
                }
            }
        }
        for (int t = tmin; t < tmin + ii && chosenT < 0; ++t) {
            for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
                if (mrt.at(t, *it) < 0) {
                    chosenT = t;
                    chosenSlot = *it;
                    break;
                }
            }
        }
        if (chosenT < 0) {
            // Force placement at tmin, ejecting the victim in the
            // least-height-critical capable slot.
            chosenT = tmin;
            int victimSlot = kNoSlot, victimH = INT32_MAX;
            for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
                const int occ = mrt.at(chosenT, *it);
                LBP_ASSERT(occ >= 0, "free slot missed");
                if (heights[occ] < victimH) {
                    victimH = heights[occ];
                    victimSlot = *it;
                }
            }
            chosenSlot = victimSlot;
            const int victim = mrt.at(chosenT, chosenSlot);
            mrt.at(chosenT, chosenSlot) = -1;
            state.cycleOf[victim] = -1;
            state.slotOf[victim] = kNoSlot;
            enqueue(victim);
        }

        mrt.at(chosenT, chosenSlot) = op;
        state.cycleOf[op] = chosenT;
        state.slotOf[op] = chosenSlot;
        lastTried[op] = chosenT;
        if (guard != kNoPred && slotOwner[chosenSlot] == kNoPred)
            slotOwner[chosenSlot] = guard;

        // Eject scheduled ops whose dependence on/from op is now
        // violated.
        auto violated = [&](const DepEdge &e) {
            if (state.cycleOf[e.from] < 0 || state.cycleOf[e.to] < 0)
                return false;
            return state.cycleOf[e.to] + ii * e.distance -
                       state.cycleOf[e.from] < e.latency;
        };
        for (int eidx : dg.succs(op)) {
            const DepEdge &e = dg.edge(eidx);
            if (e.to != op && violated(e)) {
                const int q = e.to;
                mrt.at(state.cycleOf[q], state.slotOf[q]) = -1;
                state.cycleOf[q] = -1;
                state.slotOf[q] = kNoSlot;
                enqueue(q);
            }
        }
        for (int eidx : dg.preds(op)) {
            const DepEdge &e = dg.edge(eidx);
            if (e.from != op && violated(e)) {
                const int q = e.from;
                mrt.at(state.cycleOf[q], state.slotOf[q]) = -1;
                state.cycleOf[q] = -1;
                state.slotOf[q] = kNoSlot;
                enqueue(q);
            }
        }
    }
    return true;
}

/** Modulo-variable-expansion factor from value lifetimes. */
int
computeMve(const DepGraph &dg, const ImsState &state, int ii)
{
    int mve = 1;
    for (const auto &e : dg.edges()) {
        if (e.kind != DepKind::TRUE_)
            continue;
        if (state.cycleOf[e.from] < 0 || state.cycleOf[e.to] < 0)
            continue;
        // Lifetime of the value produced by e.from, as consumed by
        // e.to (possibly in a later iteration).
        const int life = state.cycleOf[e.to] + ii * e.distance -
                         state.cycleOf[e.from];
        if (life > 0)
            mve = std::max(mve, (life + ii - 1) / ii);
    }
    return mve;
}

} // namespace

SchedBlock
moduloScheduleLoop(const BasicBlock &bb, const Machine &machine,
                   const ModuloOptions &opts, ModuloResult *outInfo)
{
    SchedBlock sb;
    sb.irBlock = bb.id;
    sb.valid = true;
    sb.isLoopBody = true;

    DepGraph dg(bb, /*loopCarried=*/true);
    const int resMII = computeResMII(bb, machine);
    const int recMII = dg.recMII();
    if (outInfo) {
        outInfo->resMII = resMII;
        outInfo->recMII = recMII;
    }

    ImsState state;
    int ii = std::max(resMII, recMII);
    bool ok = false;
    int realOps = 0;
    for (const auto &op : bb.ops)
        if (op.op != Opcode::NOP)
            ++realOps;
    if (realOps == 0)
        return sb;

    const Priority prio(bb, dg);
    for (; ii <= opts.maxII; ++ii) {
        if (tryScheduleII(bb, dg, prio, machine, ii,
                          opts.budgetRatio * realOps, state)) {
            ok = true;
            break;
        }
    }
    if (!ok) {
        sb.valid = false;
        if (outInfo)
            outInfo->success = false;
        return sb;
    }

    // Normalize to cycle 0 and emit bundles.
    int minC = INT32_MAX, maxC = INT32_MIN;
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        if (bb.ops[i].op == Opcode::NOP)
            continue;
        minC = std::min(minC, state.cycleOf[i]);
        maxC = std::max(maxC, state.cycleOf[i]);
    }
    const int len = maxC - minC + 1;
    sb.bundles.assign(len, Bundle{});
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        if (bb.ops[i].op == Opcode::NOP)
            continue;
        Bundle &bu = sb.bundles[state.cycleOf[i] - minC];
        bu.ops.push_back({bb.ops[i], state.slotOf[i]});
    }
    for (auto &bu : sb.bundles) {
        std::sort(bu.ops.begin(), bu.ops.end(),
                  [](const SchedOp &a, const SchedOp &b) {
                      return a.op.id < b.op.id;
                  });
    }

    sb.ii = ii;
    sb.minII = std::max(resMII, recMII);
    sb.pipelined = true;
    // Rotating register files rename kernel values per iteration in
    // hardware, making modulo variable expansion (and its buffer
    // image growth) unnecessary.
    sb.mveFactor = opts.rotatingRegisters
                       ? 1
                       : computeMve(dg, state, ii);
    if (outInfo)
        outInfo->success = true;
    return sb;
}

} // namespace lbp
