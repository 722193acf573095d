#include "analysis/liveness.hh"

namespace lbp
{

namespace
{

/** Is @p k an unconditional (u-type) predicate define kind? */
bool
alwaysWrites(PredDefKind k)
{
    return k == PredDefKind::UT || k == PredDefKind::UF;
}

} // namespace

Liveness::Liveness(const Function &fn)
{
    const size_t n = fn.blocks.size();
    liveIn_.assign(n, RegSet(fn.nextReg));
    liveOut_.assign(n, RegSet(fn.nextReg));
    predLiveIn_.assign(n, PredSet(fn.nextPred));
    predLiveOut_.assign(n, PredSet(fn.nextPred));

    // Per-block gen (upward-exposed uses) and kill (unconditional
    // defs). Guarded definitions are conservative: they do not kill.
    std::vector<RegSet> gen(n, RegSet(fn.nextReg)),
        kill(n, RegSet(fn.nextReg));
    std::vector<PredSet> pgen(n, PredSet(fn.nextPred)),
        pkill(n, PredSet(fn.nextPred));
    for (const auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        RegSet &g = gen[bb.id], &k = kill[bb.id];
        PredSet &pg = pgen[bb.id], &pk = pkill[bb.id];
        for (const auto &op : bb.ops) {
            forEachUse(op, [&](RegId r) {
                if (!k.count(r))
                    g.insert(r);
            });
            forEachPredUse(op, [&](PredId p) {
                if (!pk.count(p))
                    pg.insert(p);
            });
            if (op.hasGuard())
                continue;
            forEachDef(op, [&](RegId r) { k.insert(r); });
            // Unconditional u-type predicate defines always write.
            if (op.op == Opcode::PRED_DEF) {
                if (alwaysWrites(op.defKind0) && op.dsts[0].isPred())
                    pk.insert(op.dsts[0].asPred());
                if (op.dsts.size() > 1 && alwaysWrites(op.defKind1) &&
                    op.dsts[1].isPred())
                    pk.insert(op.dsts[1].asPred());
            }
        }
    }

    // in = gen | (out - kill), out = union of the successors' ins,
    // iterated to the least fixpoint.
    bool changed = true;
    const auto rpo = fn.reversePostorder();
    std::vector<std::vector<BlockId>> succs(n);
    for (BlockId b : rpo)
        succs[b] = fn.blocks[b].successors();
    RegSet out, in;
    PredSet pout, pin;
    while (changed) {
        changed = false;
        for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
            const BlockId b = *it;
            out.clear();
            pout.clear();
            for (BlockId s : succs[b]) {
                out.insertAll(liveIn_[s]);
                pout.insertAll(predLiveIn_[s]);
            }
            in = out;
            in.eraseAll(kill[b]);
            in.insertAll(gen[b]);
            pin = pout;
            pin.eraseAll(pkill[b]);
            pin.insertAll(pgen[b]);
            if (out != liveOut_[b] || in != liveIn_[b] ||
                pout != predLiveOut_[b] || pin != predLiveIn_[b]) {
                changed = true;
                liveOut_[b] = out;
                liveIn_[b] = in;
                predLiveOut_[b] = pout;
                predLiveIn_[b] = pin;
            }
        }
    }
}

} // namespace lbp
