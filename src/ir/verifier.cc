#include "ir/verifier.hh"

#include <sstream>

#include "ir/printer.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

void
checkOperation(const Function &fn, const BasicBlock &bb,
               const Operation &op, size_t idx, bool allow_internal,
               std::vector<std::string> &errs)
{
    auto err = [&](const std::string &msg) {
        std::ostringstream os;
        os << fn.name << "/" << bb.name << "[" << idx
           << "]: " << msg << " in '" << toString(op) << "'";
        errs.push_back(os.str());
    };

    // Destination kinds.
    for (const auto &d : op.dsts) {
        if (op.op == Opcode::PRED_DEF) {
            if (!d.isPred() && !d.isSlot())
                err("pred_def destination must be pred or slot");
        } else {
            if (!d.isReg())
                err("destination must be a register");
        }
    }
    for (const auto &s : op.srcs) {
        if (s.isNone())
            err("none-kind source operand");
        if (s.isSlot())
            err("slot operand as source");
    }

    // Arity per family.
    auto arity = [&](size_t nd, size_t ns) {
        if (op.dsts.size() != nd || op.srcs.size() != ns)
            err("bad operand arity");
    };
    switch (op.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIV: case Opcode::REM: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SHL:
      case Opcode::SHR: case Opcode::SHRA: case Opcode::MIN:
      case Opcode::MAX: case Opcode::SATADD: case Opcode::SATSUB:
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::CMP:
        arity(1, 2);
        break;
      case Opcode::MOV: case Opcode::ABS: case Opcode::ITOF:
      case Opcode::FTOI:
        arity(1, 1);
        break;
      case Opcode::SELECT:
        arity(1, 3);
        break;
      case Opcode::LD_B: case Opcode::LD_H: case Opcode::LD_W:
        arity(1, 2);
        break;
      case Opcode::ST_B: case Opcode::ST_H: case Opcode::ST_W:
        arity(0, 3);
        break;
      case Opcode::PRED_DEF:
        if (op.dsts.empty() || op.dsts.size() > 2)
            err("pred_def needs 1-2 destinations");
        if (op.srcs.size() != 2)
            err("pred_def needs 2 sources");
        if (op.defKind0 == PredDefKind::NONE)
            err("pred_def kind0 must be set");
        if ((op.dsts.size() == 2) !=
            (op.defKind1 != PredDefKind::NONE)) {
            err("pred_def kind1/dst1 mismatch");
        }
        break;
      case Opcode::BR: case Opcode::BR_WLOOP:
        arity(0, 2);
        if (op.target == kNoBlock)
            err("branch without target");
        break;
      case Opcode::JUMP: case Opcode::BR_CLOOP:
        arity(0, 0);
        if (op.target == kNoBlock)
            err("branch without target");
        break;
      case Opcode::REC_CLOOP: case Opcode::EXEC_CLOOP:
        arity(0, 1);
        if (op.target == kNoBlock)
            err("buffer op without loop head target");
        break;
      case Opcode::REC_WLOOP: case Opcode::EXEC_WLOOP:
        arity(0, 0);
        if (op.target == kNoBlock)
            err("buffer op without loop head target");
        break;
      case Opcode::CALL:
        if (op.callee == kNoFunc)
            err("call without callee");
        break;
      case Opcode::RET:
      case Opcode::NOP:
        break;
      default:
        err("unknown opcode");
    }

    // Branch targets in range.
    if (op.target != kNoBlock) {
        if (op.target >= fn.blocks.size())
            err("branch target out of range");
        else if (fn.blocks[op.target].dead)
            err("branch target is a dead block");
    }

    // Branch placement.
    const bool is_term_like =
        op.isBranchOp() || op.op == Opcode::RET;
    if (is_term_like && idx + 1 != bb.ops.size()) {
        const bool guarded_exit =
            (op.op == Opcode::JUMP || op.op == Opcode::BR ||
             op.op == Opcode::BR_WLOOP) && op.hasGuard();
        if (!allow_internal && !guarded_exit)
            err("branch not at block end");
        if (op.op == Opcode::RET)
            err("ret not at block end");
        if ((op.op == Opcode::JUMP || op.op == Opcode::BR) &&
            !op.hasGuard() && !allow_internal) {
            err("unconditional flow mid-block");
        }
    }
}

} // namespace

std::vector<std::string>
verify(const Function &fn, const VerifyOptions &opts)
{
    std::vector<std::string> errs;
    if (fn.entry == kNoBlock) {
        errs.push_back(fn.name + ": no entry block");
        return errs;
    }
    if (fn.entry >= fn.blocks.size() || fn.blocks[fn.entry].dead) {
        errs.push_back(fn.name + ": bad entry block");
        return errs;
    }
    for (const auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        if (bb.id >= fn.blocks.size() || &fn.blocks[bb.id] != &bb)
            errs.push_back(fn.name + ": block id mismatch");
        if (bb.fallthrough != kNoBlock) {
            if (bb.fallthrough >= fn.blocks.size() ||
                fn.blocks[bb.fallthrough].dead) {
                errs.push_back(fn.name + "/" + bb.name +
                               ": bad fallthrough");
            }
        }
        // A block must end in unconditional control or have a
        // fallthrough.
        if (!bb.endsWithUnconditional() && bb.fallthrough == kNoBlock) {
            errs.push_back(fn.name + "/" + bb.name +
                           ": falls off the end of the function");
        }
        for (size_t i = 0; i < bb.ops.size(); ++i) {
            checkOperation(fn, bb, bb.ops[i], i,
                           opts.allowInternalBranches ||
                           bb.isHyperblock, errs);
        }
    }
    return errs;
}

std::vector<std::string>
verify(const Program &prog, const VerifyOptions &opts)
{
    std::vector<std::string> errs;
    for (const auto &fn : prog.functions) {
        auto e = verify(fn, opts);
        errs.insert(errs.end(), e.begin(), e.end());
        // Call targets valid.
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            for (const auto &op : bb.ops) {
                if (op.op == Opcode::CALL &&
                    op.callee >= prog.functions.size()) {
                    errs.push_back(fn.name + ": call to bad function");
                }
            }
        }
    }
    if (prog.entryFunc == kNoFunc ||
        prog.entryFunc >= prog.functions.size()) {
        errs.push_back(prog.name + ": no entry function");
    }
    // The checksum region is hashed after every run; it must lie
    // inside the memory image.
    const std::uint64_t memBytes = prog.memory.size();
    const auto base = static_cast<std::uint64_t>(prog.checksumBase);
    const auto size = static_cast<std::uint64_t>(prog.checksumSize);
    const bool inside =
        prog.checksumSize == 0 ||
        (prog.checksumSize > 0 && prog.checksumBase >= 0 &&
         base <= memBytes && size <= memBytes - base);
    if (!inside) {
        errs.push_back(prog.name + ": checksum region (base " +
                       std::to_string(prog.checksumBase) + ", size " +
                       std::to_string(prog.checksumSize) +
                       ") outside memory of " +
                       std::to_string(memBytes) + " bytes");
    }
    return errs;
}

void
verifyOrDie(const Function &fn, const VerifyOptions &opts)
{
    auto errs = verify(fn, opts);
    if (!errs.empty()) {
        std::ostringstream os;
        for (const auto &e : errs)
            os << "\n  " << e;
        LBP_PANIC("IR verification failed:", os.str());
    }
}

void
verifyOrDie(const Program &prog, const VerifyOptions &opts)
{
    auto errs = verify(prog, opts);
    if (!errs.empty()) {
        std::ostringstream os;
        for (const auto &e : errs)
            os << "\n  " << e;
        LBP_PANIC("IR verification failed:", os.str());
    }
}

} // namespace lbp
