#include "ir/interpreter.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Saturate to signed 16-bit, the DSP intrinsic range. */
std::int64_t
sat16(std::int64_t v)
{
    return std::clamp<std::int64_t>(v, -32768, 32767);
}

double
asDouble(std::int64_t v)
{
    double d;
    static_assert(sizeof(d) == sizeof(v));
    __builtin_memcpy(&d, &v, sizeof(d));
    return d;
}

std::int64_t
asBits(double d)
{
    std::int64_t v;
    __builtin_memcpy(&v, &d, sizeof(v));
    return v;
}

// Two's-complement integer semantics with defined overflow; see
// ir/alu_ops.hh for the contract the fast executors share.
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapAbs(std::int64_t v)
{
    return v < 0 ? wrapSub(0, v) : v;
}

std::int64_t
ftoi(double d)
{
    return d >= -0x1p63 && d < 0x1p63
               ? static_cast<std::int64_t>(d)
               : std::numeric_limits<std::int64_t>::min();
}

} // namespace

std::uint64_t
fnv1a(const std::uint8_t *data, size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

Interpreter::Interpreter(const Program &prog) : prog_(prog)
{
}

std::uint64_t
Interpreter::hashRange(std::int64_t base, std::int64_t size) const
{
    if (size <= 0)
        return fnv1a(nullptr, 0);
    LBP_ASSERT(base >= 0 &&
               static_cast<size_t>(base + size) <= mem_.size(),
               "hashRange out of bounds");
    return fnv1a(mem_.data() + base, static_cast<size_t>(size));
}

ExecResult
Interpreter::run(const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(prog_.entryFunc != kNoFunc, "program without entry");
    mem_ = prog_.memory;
    res_ = ExecResult{};
    executed_ = 0;
    callDepth_ = 0;
    auto rets = callFunction(prog_.functions[prog_.entryFunc], args);
    res_.returns = std::move(rets);
    res_.checksum = hashRange(prog_.checksumBase, prog_.checksumSize);
    return res_;
}

std::int64_t
Interpreter::readOperand(const Frame &fr, const Operand &o) const
{
    switch (o.kind) {
      case OperandKind::REG:
        LBP_ASSERT(o.asReg() < fr.regs.size(), "register out of range r",
                   o.asReg(), " in ", fr.fn->name);
        return fr.regs[o.asReg()];
      case OperandKind::IMM:
        return o.value;
      case OperandKind::PRED:
        LBP_ASSERT(o.asPred() < fr.preds.size(), "pred out of range");
        return fr.preds[o.asPred()];
      default:
        LBP_PANIC("unreadable operand kind");
    }
}

bool
Interpreter::guardPasses(const Frame &fr, const Operation &op) const
{
    if (op.guard == kNoPred)
        return true;
    LBP_ASSERT(op.guard < fr.preds.size(), "guard pred out of range p",
               op.guard, " in ", fr.fn->name);
    return fr.preds[op.guard] != 0;
}

void
Interpreter::execPredDef(Frame &fr, const Operation &op)
{
    // Table 2: the guard is an input to the define function, not a
    // nullification condition.
    const bool g = guardPasses(fr, op);
    const std::int64_t a = readOperand(fr, op.srcs[0]);
    const std::int64_t b = readOperand(fr, op.srcs[1]);
    const bool c = evalCond(op.cond, a, b);

    auto apply = [&](PredDefKind k, const Operand &dst) {
        if (k == PredDefKind::NONE)
            return;
        LBP_ASSERT(dst.isPred(),
                   "interpreter requires pred-register destinations");
        PredId p = dst.asPred();
        LBP_ASSERT(p != kNoPred && p < fr.preds.size(),
                   "bad pred destination");
        int write = -1; // -1: no update
        switch (k) {
          case PredDefKind::UT: write = g ? (c ? 1 : 0) : 0; break;
          case PredDefKind::UF: write = g ? (c ? 0 : 1) : 0; break;
          case PredDefKind::OT: if (g && c) write = 1; break;
          case PredDefKind::OF: if (g && !c) write = 1; break;
          case PredDefKind::AT: if (g && !c) write = 0; break;
          case PredDefKind::AF: if (g && c) write = 0; break;
          case PredDefKind::CT: if (g) write = c ? 1 : 0; break;
          case PredDefKind::CF: if (g) write = c ? 0 : 1; break;
          default: LBP_PANIC("bad pred def kind");
        }
        if (write >= 0)
            fr.preds[p] = static_cast<std::uint8_t>(write);
    };
    apply(op.defKind0, op.dsts[0]);
    if (op.dsts.size() > 1)
        apply(op.defKind1, op.dsts[1]);
}

std::int64_t
Interpreter::evalAlu(const Operation &op, std::int64_t a,
                     std::int64_t b) const
{
    switch (op.op) {
      case Opcode::ADD: return wrapAdd(a, b);
      case Opcode::SUB: return wrapSub(a, b);
      case Opcode::MUL: return wrapMul(a, b);
      case Opcode::DIV:
        LBP_ASSERT(b != 0, "division by zero");
        return b == -1 ? wrapSub(0, a) : a / b;
      case Opcode::REM:
        LBP_ASSERT(b != 0, "remainder by zero");
        return b == -1 ? 0 : a % b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::SHL: return a << (b & 63);
      case Opcode::SHR:
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(a) >> (b & 63));
      case Opcode::SHRA: return a >> (b & 63);
      case Opcode::MIN: return std::min(a, b);
      case Opcode::MAX: return std::max(a, b);
      case Opcode::SATADD: return sat16(wrapAdd(a, b));
      case Opcode::SATSUB: return sat16(wrapSub(a, b));
      case Opcode::CMP:
        return evalCond(op.cond, a, b) ? 1 : 0;
      case Opcode::FADD: return asBits(asDouble(a) + asDouble(b));
      case Opcode::FSUB: return asBits(asDouble(a) - asDouble(b));
      case Opcode::FMUL: return asBits(asDouble(a) * asDouble(b));
      case Opcode::FDIV: return asBits(asDouble(a) / asDouble(b));
      default: LBP_PANIC("evalAlu on non-ALU opcode");
    }
}

std::int64_t
Interpreter::loadMem(Opcode op, std::int64_t addr) const
{
    LBP_ASSERT(addr >= 0, "negative load address");
    size_t need = op == Opcode::LD_B ? 1 : op == Opcode::LD_H ? 2 : 4;
    LBP_ASSERT(static_cast<size_t>(addr) + need <= mem_.size(),
               "load out of bounds @", addr);
    std::uint32_t raw = 0;
    for (size_t i = 0; i < need; ++i)
        raw |= static_cast<std::uint32_t>(mem_[addr + i]) << (8 * i);
    switch (op) {
      case Opcode::LD_B:
        return static_cast<std::int8_t>(raw);
      case Opcode::LD_H:
        return static_cast<std::int16_t>(raw);
      default:
        return static_cast<std::int32_t>(raw);
    }
}

void
Interpreter::storeMem(Opcode op, std::int64_t addr, std::int64_t v)
{
    LBP_ASSERT(addr >= 0, "negative store address");
    size_t need = op == Opcode::ST_B ? 1 : op == Opcode::ST_H ? 2 : 4;
    LBP_ASSERT(static_cast<size_t>(addr) + need <= mem_.size(),
               "store out of bounds @", addr);
    for (size_t i = 0; i < need; ++i)
        mem_[addr + i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
}

std::vector<std::int64_t>
Interpreter::callFunction(const Function &fn,
                          const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(++callDepth_ < 200, "call stack overflow in ", fn.name);
    LBP_ASSERT(args.size() == fn.params.size(),
               "argument count mismatch calling ", fn.name);

    Frame fr;
    fr.fn = &fn;
    fr.regs.assign(fn.nextReg, 0);
    fr.preds.assign(std::max<PredId>(fn.nextPred, 1), 0);
    for (size_t i = 0; i < args.size(); ++i)
        fr.regs[fn.params[i]] = args[i];

    std::vector<LoopEntry> loopStack;
    BlockId cur = fn.entry;
    size_t idx = 0;

    while (true) {
        LBP_ASSERT(cur != kNoBlock && cur < fn.blocks.size(),
                   "fell off CFG in ", fn.name);
        const BasicBlock &bb = fn.blocks[cur];
        LBP_ASSERT(!bb.dead, "executing dead block in ", fn.name);
        if (idx == 0) {
            ++res_.dynBlocks;
            if (sink_)
                sink_->onBlock(fn.id, cur);
        }
        if (idx >= bb.ops.size()) {
            LBP_ASSERT(bb.fallthrough != kNoBlock,
                       "fell off block ", bb.name, " in ", fn.name);
            cur = bb.fallthrough;
            idx = 0;
            continue;
        }

        const Operation &op = bb.ops[idx];
        ++res_.dynOps;
        LBP_ASSERT(++executed_ <= maxOps_,
                   "operation budget exceeded in ", fn.name);

        const bool pass = guardPasses(fr, op);
        if (!pass && op.op != Opcode::PRED_DEF) {
            ++res_.dynNullified;
            if (op.isBranchOp())
                ++res_.dynBranches;
            ++idx;
            continue;
        }

        switch (op.op) {
          case Opcode::NOP:
            ++idx;
            break;

          case Opcode::MOV:
          case Opcode::ABS:
            fr.regs[op.dsts[0].asReg()] =
                op.op == Opcode::MOV
                    ? readOperand(fr, op.srcs[0])
                    : wrapAbs(readOperand(fr, op.srcs[0]));
            ++idx;
            break;

          case Opcode::ITOF:
            fr.regs[op.dsts[0].asReg()] = asBits(
                static_cast<double>(readOperand(fr, op.srcs[0])));
            ++idx;
            break;

          case Opcode::FTOI:
            fr.regs[op.dsts[0].asReg()] =
                ftoi(asDouble(readOperand(fr, op.srcs[0])));
            ++idx;
            break;

          case Opcode::SELECT: {
            const std::int64_t c = readOperand(fr, op.srcs[0]);
            fr.regs[op.dsts[0].asReg()] =
                c ? readOperand(fr, op.srcs[1])
                  : readOperand(fr, op.srcs[2]);
            ++idx;
            break;
          }

          case Opcode::LD_B:
          case Opcode::LD_H:
          case Opcode::LD_W: {
            const std::int64_t addr = readOperand(fr, op.srcs[0]) +
                                      readOperand(fr, op.srcs[1]);
            const size_t need = op.op == Opcode::LD_B ? 1
                                : op.op == Opcode::LD_H ? 2 : 4;
            if (op.speculative &&
                (addr < 0 ||
                 static_cast<size_t>(addr) + need > mem_.size())) {
                // Speculative (non-faulting) load form: out-of-range
                // accesses deliver 0 instead of faulting.
                fr.regs[op.dsts[0].asReg()] = 0;
            } else {
                fr.regs[op.dsts[0].asReg()] = loadMem(op.op, addr);
            }
            ++idx;
            break;
          }

          case Opcode::ST_B:
          case Opcode::ST_H:
          case Opcode::ST_W: {
            const std::int64_t addr = readOperand(fr, op.srcs[0]) +
                                      readOperand(fr, op.srcs[1]);
            storeMem(op.op, addr, readOperand(fr, op.srcs[2]));
            ++idx;
            break;
          }

          case Opcode::PRED_DEF:
            execPredDef(fr, op);
            ++idx;
            break;

          case Opcode::BR:
          case Opcode::BR_WLOOP: {
            ++res_.dynBranches;
            const std::int64_t a = readOperand(fr, op.srcs[0]);
            const std::int64_t b = readOperand(fr, op.srcs[1]);
            const bool taken = evalCond(op.cond, a, b);
            if (taken)
                ++res_.dynTaken;
            if (op.op == Opcode::BR_WLOOP && !taken &&
                !loopStack.empty() && !loopStack.back().counted) {
                // While-loop exit: retire the hardware loop context.
                if (loopStack.back().isExec) {
                    cur = loopStack.back().resumeBlock;
                    idx = loopStack.back().resumeIndex;
                    loopStack.pop_back();
                    break;
                }
                loopStack.pop_back();
            }
            if (taken) {
                // A taken transfer that leaves the active hardware
                // loop's body cancels its context.
                while (!loopStack.empty() &&
                       loopStack.back().head == cur &&
                       op.target != loopStack.back().head) {
                    loopStack.pop_back();
                }
                cur = op.target;
                idx = 0;
            } else {
                ++idx;
            }
            break;
          }

          case Opcode::JUMP:
            ++res_.dynBranches;
            ++res_.dynTaken;
            while (!loopStack.empty() &&
                   loopStack.back().head == cur &&
                   op.target != loopStack.back().head) {
                loopStack.pop_back();
            }
            cur = op.target;
            idx = 0;
            break;

          case Opcode::BR_CLOOP: {
            ++res_.dynBranches;
            LBP_ASSERT(!loopStack.empty() && loopStack.back().counted,
                       "br.cloop without live counted-loop context in ",
                       fn.name);
            LoopEntry &le = loopStack.back();
            --le.remaining;
            const bool taken = le.remaining > 0;
            if (taken)
                ++res_.dynTaken;
            if (taken) {
                cur = op.target;
                idx = 0;
            } else {
                if (le.isExec) {
                    cur = le.resumeBlock;
                    idx = le.resumeIndex;
                    loopStack.pop_back();
                    break;
                }
                loopStack.pop_back();
                ++idx;
            }
            break;
          }

          case Opcode::REC_CLOOP: {
            const std::int64_t count = readOperand(fr, op.srcs[0]);
            LBP_ASSERT(count >= 1, "rec_cloop with count ", count,
                       " in ", fn.name);
            loopStack.push_back({true, count, op.target, kNoBlock, 0, false});
            ++idx;
            break;
          }

          case Opcode::REC_WLOOP:
            loopStack.push_back({false, 0, op.target, kNoBlock, 0, false});
            ++idx;
            break;

          case Opcode::EXEC_CLOOP: {
            const std::int64_t count = readOperand(fr, op.srcs[0]);
            LBP_ASSERT(count >= 1, "exec_cloop with count ", count);
            loopStack.push_back({true, count, op.target, cur, idx + 1, true});
            cur = op.target;
            idx = 0;
            break;
          }

          case Opcode::EXEC_WLOOP:
            loopStack.push_back({false, 0, op.target, cur, idx + 1, true});
            cur = op.target;
            idx = 0;
            break;

          case Opcode::CALL: {
            const Function &callee = prog_.functions[op.callee];
            std::vector<std::int64_t> cargs;
            cargs.reserve(op.srcs.size());
            for (const auto &s : op.srcs)
                cargs.push_back(readOperand(fr, s));
            auto rets = callFunction(callee, cargs);
            LBP_ASSERT(rets.size() >= op.dsts.size(),
                       "not enough return values from ", callee.name);
            for (size_t i = 0; i < op.dsts.size(); ++i)
                fr.regs[op.dsts[i].asReg()] = rets[i];
            ++idx;
            break;
          }

          case Opcode::RET: {
            std::vector<std::int64_t> rets;
            for (const auto &s : op.srcs)
                rets.push_back(readOperand(fr, s));
            --callDepth_;
            return rets;
          }

          default: {
            // Binary ALU family.
            const std::int64_t a = readOperand(fr, op.srcs[0]);
            const std::int64_t b = readOperand(fr, op.srcs[1]);
            fr.regs[op.dsts[0].asReg()] = evalAlu(op, a, b);
            ++idx;
            break;
          }
        }
    }
}

} // namespace lbp
