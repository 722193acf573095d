#include "ir/printer.hh"

#include <ostream>
#include <sstream>

namespace lbp
{

namespace
{

/** @p prefix then the decimal @p v, appended in place. */
template <typename T>
std::string
prefixed(char prefix, T v)
{
    std::string s(1, prefix);
    s += std::to_string(v);
    return s;
}

std::string
operandStr(const Operand &o)
{
    switch (o.kind) {
      case OperandKind::NONE: return "<none>";
      case OperandKind::REG: return prefixed('r', o.asReg());
      case OperandKind::IMM: return std::to_string(o.value);
      case OperandKind::PRED: return prefixed('p', o.asPred());
      case OperandKind::SLOT: return prefixed('s', o.asSlot());
    }
    return "?";
}

std::string
blockName(BlockId b, const Function *fn)
{
    if (b == kNoBlock)
        return "<none>";
    if (fn && b < fn->blocks.size() && !fn->blocks[b].name.empty())
        return fn->blocks[b].name;
    return "bb" + std::to_string(b);
}

} // namespace

std::string
toString(const Operation &op, const Function *fn)
{
    std::ostringstream os;
    if (op.hasGuard())
        os << "(p" << op.guard << ") ";
    if (op.sensitive)
        os << "[s] ";
    os << opcodeName(op.op);
    if (op.op == Opcode::CMP || op.op == Opcode::BR ||
        op.op == Opcode::BR_WLOOP || op.op == Opcode::PRED_DEF) {
        os << "." << condName(op.cond);
    }
    if (op.op == Opcode::PRED_DEF) {
        os << " " << operandStr(op.dsts[0]) << "_"
           << predDefKindName(op.defKind0);
        if (op.dsts.size() > 1) {
            os << ", " << operandStr(op.dsts[1]) << "_"
               << predDefKindName(op.defKind1);
        }
        os << " = (" << operandStr(op.srcs[0]) << ", "
           << operandStr(op.srcs[1]) << ")";
        return os.str();
    }
    bool first = true;
    for (const auto &d : op.dsts) {
        os << (first ? " " : ", ") << operandStr(d);
        first = false;
    }
    if (!op.dsts.empty() && !op.srcs.empty())
        os << " =";
    first = true;
    for (const auto &s : op.srcs) {
        os << (first ? " " : ", ") << operandStr(s);
        first = false;
    }
    if (op.target != kNoBlock)
        os << " -> " << blockName(op.target, fn);
    if (op.op == Opcode::CALL)
        os << " @f" << op.callee;
    if (isBufferOp(op.op))
        os << " [buf=" << op.bufAddr << ", n=" << op.numOps << "]";
    if (op.speculative)
        os << " <spec>";
    if (op.fromOuterLoop)
        os << " <outer>";
    return os.str();
}

void
print(std::ostream &os, const Function &fn)
{
    os << "function " << fn.name << " (";
    for (size_t i = 0; i < fn.params.size(); ++i)
        os << (i ? ", r" : "r") << fn.params[i];
    os << ") entry=" << blockName(fn.entry, &fn) << "\n";
    for (const auto &b : fn.blocks) {
        if (b.dead)
            continue;
        os << "  " << blockName(b.id, &fn) << ":";
        if (b.weight > 0)
            os << "    ; weight=" << b.weight;
        if (b.isHyperblock)
            os << " [hyperblock]";
        os << "\n";
        for (const auto &o : b.ops)
            os << "    " << toString(o, &fn) << "\n";
        if (b.fallthrough != kNoBlock)
            os << "    ; falls to " << blockName(b.fallthrough, &fn)
               << "\n";
    }
}

void
print(std::ostream &os, const Program &prog)
{
    os << "program " << prog.name << "\n";
    for (const auto &f : prog.functions) {
        print(os, f);
        os << "\n";
    }
}

std::string
toString(const Function &fn)
{
    std::ostringstream os;
    print(os, fn);
    return os.str();
}

} // namespace lbp
