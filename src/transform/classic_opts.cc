#include "transform/classic_opts.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/liveness.hh"
#include "ir/alu_ops.hh"
#include "ir/interpreter.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

bool
hasSideEffects(const Operation &op)
{
    if (isStore(op.op) || isControl(op.op) || op.op == Opcode::PRED_DEF)
        return true;
    return false;
}

/** Try evaluating an all-constant ALU op; true on success. */
bool
foldOp(Operation &op, int &folded)
{
    // Only pure single-dest register ops.
    if (op.dsts.size() != 1 || !op.dsts[0].isReg())
        return false;
    switch (op.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::AND: case Opcode::OR: case Opcode::XOR:
      case Opcode::SHL: case Opcode::SHR: case Opcode::SHRA:
      case Opcode::MIN: case Opcode::MAX:
      case Opcode::SATADD: case Opcode::SATSUB:
      case Opcode::CMP:
        break;
      case Opcode::DIV: case Opcode::REM:
        // Fold only when the divisor is a non-zero constant.
        if (!op.srcs[1].isImm() || op.srcs[1].value == 0)
            return false;
        break;
      default:
        return false;
    }
    for (const auto &s : op.srcs)
        if (!s.isImm())
            return false;

    const std::int64_t a = op.srcs[0].value;
    const std::int64_t b = op.srcs[1].value;
    // The executors' own semantics (two's complement, defined
    // overflow), so a folded op computes what it would have at run
    // time.
    const std::int64_t v = evalBinaryAlu(op.op, op.cond, a, b);
    const RegId dst = op.dsts[0].asReg();
    const PredId guard = op.guard;
    const OpId id = op.id;
    op = makeUnary(Opcode::MOV, dst, Operand::imm(v));
    op.guard = guard;
    op.id = id;
    ++folded;
    return true;
}

/** Algebraic identities: x+0, x*1, x*0, x<<0, ... */
bool
simplifyOp(Operation &op, int &folded)
{
    if (op.dsts.size() != 1 || !op.dsts[0].isReg() || op.srcs.size() != 2)
        return false;
    const RegId dst = op.dsts[0].asReg();
    auto toMov = [&](Operand v) {
        const PredId guard = op.guard;
        const OpId id = op.id;
        op = makeUnary(Opcode::MOV, dst, v);
        op.guard = guard;
        op.id = id;
        ++folded;
        return true;
    };
    const Operand &a = op.srcs[0];
    const Operand &b = op.srcs[1];
    switch (op.op) {
      case Opcode::ADD:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        if (a.isImm() && a.value == 0)
            return toMov(b);
        return false;
      case Opcode::SUB:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        return false;
      case Opcode::MUL:
        if (b.isImm() && b.value == 1)
            return toMov(a);
        if (a.isImm() && a.value == 1)
            return toMov(b);
        if ((b.isImm() && b.value == 0) || (a.isImm() && a.value == 0))
            return toMov(Operand::imm(0));
        return false;
      case Opcode::SHL: case Opcode::SHR: case Opcode::SHRA:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        return false;
      case Opcode::OR: case Opcode::XOR:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        return false;
      default:
        return false;
    }
}

} // namespace

OptStats
constantFold(Function &fn)
{
    OptStats st;
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        for (auto &op : bb.ops) {
            if (!foldOp(op, st.folded))
                simplifyOp(op, st.folded);
        }
    }
    return st;
}

OptStats
copyPropagate(Function &fn)
{
    OptStats st;
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        // reg -> known copy source (imm or reg), invalidated on write.
        std::map<RegId, Operand> known;
        auto invalidateUsesOf = [&](RegId r) {
            for (auto it = known.begin(); it != known.end();) {
                if (it->first == r ||
                    (it->second.isReg() && it->second.asReg() == r)) {
                    it = known.erase(it);
                } else {
                    ++it;
                }
            }
        };
        for (auto &op : bb.ops) {
            // Substitute sources. Skip branch targets etc. (non-reg).
            for (auto &s : op.srcs) {
                if (!s.isReg())
                    continue;
                auto it = known.find(s.asReg());
                if (it != known.end()) {
                    s = it->second;
                    ++st.propagated;
                }
            }
            // Update facts.
            for (const auto &d : op.dsts) {
                if (d.isReg())
                    invalidateUsesOf(d.asReg());
            }
            if (op.op == Opcode::MOV && !op.hasGuard() &&
                op.dsts.size() == 1 && op.dsts[0].isReg()) {
                const Operand &src = op.srcs[0];
                if (src.isImm() ||
                    (src.isReg() && src.asReg() != op.dsts[0].asReg())) {
                    known[op.dsts[0].asReg()] = src;
                }
            }
        }
    }
    return st;
}

OptStats
deadCodeElim(Function &fn)
{
    OptStats st;
    Liveness live(fn);
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        // Backward scan with a running live set seeded by live-out.
        std::set<RegId> liveNow = live.liveOut(bb.id);
        std::set<PredId> predLiveNow = live.predLiveOut(bb.id);
        std::vector<char> keep(bb.ops.size(), 1);
        bool removed = false;
        for (int i = static_cast<int>(bb.ops.size()) - 1; i >= 0; --i) {
            Operation &op = bb.ops[i];
            bool needed = hasSideEffects(op);
            if (!needed) {
                for (RegId d : Liveness::defs(op)) {
                    if (liveNow.count(d))
                        needed = true;
                }
            }
            // A pred_def is removable if all pred destinations are
            // dead (and none are slots).
            if (op.op == Opcode::PRED_DEF) {
                needed = false;
                for (const auto &d : op.dsts) {
                    if (!d.isPred() || predLiveNow.count(d.asPred()))
                        needed = true;
                }
            }
            if (!needed) {
                keep[i] = 0;
                removed = true;
                ++st.eliminated;
                continue;
            }
            // Update live sets.
            if (!op.hasGuard()) {
                for (RegId d : Liveness::defs(op))
                    liveNow.erase(d);
                if (op.op == Opcode::PRED_DEF) {
                    for (const auto &d : op.dsts) {
                        if (d.isPred() &&
                            (op.defKind0 == PredDefKind::UT ||
                             op.defKind0 == PredDefKind::UF)) {
                            // Only kind0's unconditional write kills
                            // reliably; be conservative and keep preds
                            // live.
                        }
                    }
                }
            }
            for (RegId u : Liveness::uses(op))
                liveNow.insert(u);
            for (PredId p : Liveness::predUses(op))
                predLiveNow.insert(p);
        }
        if (removed) {
            std::vector<Operation> kept;
            kept.reserve(bb.ops.size());
            for (size_t i = 0; i < bb.ops.size(); ++i)
                if (keep[i])
                    kept.push_back(std::move(bb.ops[i]));
            bb.ops = std::move(kept);
        }
    }
    return st;
}

OptStats
optimizeFunction(Function &fn, int max_rounds)
{
    OptStats total;
    for (int round = 0; round < max_rounds; ++round) {
        OptStats st;
        st += copyPropagate(fn);
        st += constantFold(fn);
        st += deadCodeElim(fn);
        total += st;
        if (!st.any())
            break;
    }
    fn.pruneUnreachable();
    return total;
}

OptStats
optimizeProgram(Program &prog)
{
    OptStats total;
    for (auto &fn : prog.functions)
        total += optimizeFunction(fn);
    return total;
}

} // namespace lbp
