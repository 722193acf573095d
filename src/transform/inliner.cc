#include "transform/inliner.hh"

#include <algorithm>
#include <map>

#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Remap a register operand by the renaming offset tables. */
Operand
remapOperand(const Operand &o, RegId regBase, PredId predBase)
{
    if (o.isReg())
        return Operand::reg(o.asReg() + regBase);
    if (o.isPred() && o.asPred() != kNoPred)
        return Operand::pred(o.asPred() + predBase);
    return o;
}

} // namespace

bool
inlineCallSite(Program &prog, FuncId callerId, BlockId bbId,
               size_t opIdx)
{
    Function &caller = prog.functions[callerId];
    LBP_ASSERT(bbId < caller.blocks.size(), "bad block");
    LBP_ASSERT(opIdx < caller.blocks[bbId].ops.size(), "bad op index");
    const Operation callOp = caller.blocks[bbId].ops[opIdx];
    LBP_ASSERT(callOp.op == Opcode::CALL, "not a call site");

    const FuncId calleeId = callOp.callee;
    if (calleeId == callerId)
        return false; // direct recursion
    const Function &callee = prog.functions[calleeId];
    if (callee.noInline)
        return false;
    // Reject indirect recursion into the caller.
    for (const auto &cb : callee.blocks) {
        if (cb.dead)
            continue;
        for (const auto &co : cb.ops) {
            if (co.op == Opcode::CALL && co.callee == callerId)
                return false;
        }
    }
    LBP_ASSERT(callOp.srcs.size() == callee.params.size(),
               "call arity mismatch inlining ", callee.name);

    // Renaming bases: callee register r becomes r + regBase.
    const RegId regBase = caller.nextReg;
    const PredId predBase = caller.nextPred;
    caller.nextReg += callee.nextReg;
    caller.nextPred += callee.nextPred;

    // Split the caller block at the call: [0, opIdx) stays, the call
    // is replaced by parameter moves + fallthrough into the inlined
    // entry; ops after the call move into a continuation block.
    BasicBlock &site = caller.blocks[bbId];
    std::vector<Operation> before(site.ops.begin(),
                                  site.ops.begin() + opIdx);
    std::vector<Operation> after(site.ops.begin() + opIdx + 1,
                                 site.ops.end());

    const BlockId contId =
        caller.newBlock(site.name + ".cont");
    // NOTE: newBlock may reallocate; re-take references afterwards.
    BasicBlock &cont = caller.blocks[contId];
    cont.ops = std::move(after);
    cont.fallthrough = caller.blocks[bbId].fallthrough;
    cont.weight = caller.blocks[bbId].weight;

    // Map callee block ids to fresh caller block ids.
    std::map<BlockId, BlockId> bmap;
    for (const auto &cb : callee.blocks) {
        if (cb.dead)
            continue;
        bmap[cb.id] =
            caller.newBlock(callee.name + "." + cb.name);
    }

    {
        BasicBlock &siteRef = caller.blocks[bbId];
        siteRef.ops = std::move(before);
        // Parameter moves.
        for (size_t i = 0; i < callee.params.size(); ++i) {
            Operation mv = makeUnary(
                Opcode::MOV, callee.params[i] + regBase,
                remapOperand(callOp.srcs[i], 0, 0));
            mv.id = caller.newOpId();
            siteRef.ops.push_back(std::move(mv));
        }
        siteRef.fallthrough = bmap.at(callee.entry);
    }

    // Copy callee bodies with renaming.
    for (const auto &cb : callee.blocks) {
        if (cb.dead)
            continue;
        BasicBlock &nb = caller.blocks[bmap.at(cb.id)];
        nb.weight = cb.weight;
        nb.isHyperblock = cb.isHyperblock;
        nb.fallthrough =
            cb.fallthrough == kNoBlock ? kNoBlock
                                       : bmap.at(cb.fallthrough);
        for (const auto &co : cb.ops) {
            if (co.op == Opcode::RET) {
                // Return-value moves + jump to continuation.
                LBP_ASSERT(co.srcs.size() >= callOp.dsts.size(),
                           "missing return values inlining ",
                           callee.name);
                for (size_t i = 0; i < callOp.dsts.size(); ++i) {
                    Operation mv = makeUnary(
                        Opcode::MOV, callOp.dsts[i].asReg(),
                        remapOperand(co.srcs[i], regBase, predBase));
                    mv.id = caller.newOpId();
                    mv.guard = co.guard == kNoPred
                                   ? kNoPred
                                   : co.guard + predBase;
                    nb.ops.push_back(std::move(mv));
                }
                Operation jmp = makeJump(contId);
                jmp.id = caller.newOpId();
                jmp.guard = co.guard == kNoPred ? kNoPred
                                                : co.guard + predBase;
                nb.ops.push_back(std::move(jmp));
                continue;
            }
            Operation no = co;
            no.id = caller.newOpId();
            if (no.guard != kNoPred)
                no.guard += predBase;
            for (auto &d : no.dsts)
                d = remapOperand(d, regBase, predBase);
            for (auto &s : no.srcs)
                s = remapOperand(s, regBase, predBase);
            if (no.target != kNoBlock)
                no.target = bmap.at(no.target);
            nb.ops.push_back(std::move(no));
        }
    }

    // Retarget branches that pointed at the split block's *interior*?
    // None exist: branches target block heads, and the head of bbId
    // still holds the pre-call ops. Branches into bbId still execute
    // the pre-call code and then flow into the inlined body, which
    // preserves semantics.
    return true;
}

InlineStats
inlineHotCalls(Program &prog, const InlineOptions &opts)
{
    // Block weights were annotated onto the IR by the profiler and
    // are copied to blocks created by earlier inlining steps, so the
    // IR annotations are the authoritative weight source here.
    InlineStats st;
    const int original = prog.sizeOps();
    const int budget =
        static_cast<int>(original * opts.maxExpansion);

    struct Site
    {
        FuncId caller;
        BlockId bb;
        OpId opId;
        FuncId callee;
        double weight;
        int calleeSize;
    };

    // Iterate: after each inlining, call sites shift; rescan.
    int guard = 0;
    while (st.opsAdded < budget && guard++ < 1000) {
        std::vector<Site> sites;
        for (const auto &fn : prog.functions) {
            for (const auto &bb : fn.blocks) {
                if (bb.dead)
                    continue;
                for (const auto &op : bb.ops) {
                    if (op.op != Opcode::CALL)
                        continue;
                    const double w = std::max(bb.weight, 0.0);
                    if (w < opts.minCallWeight)
                        continue;
                    const Function &callee =
                        prog.functions[op.callee];
                    const int sz = callee.sizeOps();
                    if (callee.noInline || sz > opts.maxCalleeOps)
                        continue;
                    if (sz + st.opsAdded > budget)
                        continue;
                    sites.push_back({fn.id, bb.id, op.id, op.callee,
                                     w, sz});
                }
            }
        }
        if (sites.empty())
            break;
        std::sort(sites.begin(), sites.end(),
                  [](const Site &a, const Site &b) {
                      if (a.weight != b.weight)
                          return a.weight > b.weight;
                      return a.calleeSize < b.calleeSize;
                  });

        // Inline the hottest eligible site this round.
        bool did = false;
        for (const auto &s : sites) {
            // Re-locate the op by id (indices may be stale).
            Function &fn = prog.functions[s.caller];
            BasicBlock &bb = fn.blocks[s.bb];
            size_t idx = SIZE_MAX;
            for (size_t i = 0; i < bb.ops.size(); ++i) {
                if (bb.ops[i].id == s.opId &&
                    bb.ops[i].op == Opcode::CALL) {
                    idx = i;
                    break;
                }
            }
            if (idx == SIZE_MAX)
                continue;
            if (inlineCallSite(prog, s.caller, s.bb, idx)) {
                ++st.sitesInlined;
                st.opsAdded += s.calleeSize;
                did = true;
                break;
            }
        }
        if (!did)
            break;
    }
    return st;
}

} // namespace lbp
