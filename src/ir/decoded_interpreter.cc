#include "ir/decoded_interpreter.hh"

#include <algorithm>
#include <map>
#include <numeric>
#include <type_traits>

#include "ir/alu_ops.hh"
#include "support/logging.hh"

namespace lbp
{

static_assert(sizeof(IrOp) == 32 &&
                  std::has_unique_object_representations_v<IrOp>,
              "IrOp must stay a padding-free 32-byte record");

namespace
{

constexpr std::uint8_t kSpeculative = 1;
constexpr std::uint8_t kBranch = 2;

constexpr std::uint8_t
handlerOf(Opcode op)
{
    return static_cast<std::uint8_t>(op);
}

/** Decodes one Function into an IrFunction. */
class FunctionDecoder
{
  public:
    FunctionDecoder(const Program &prog, const Function &fn,
                    IrFunction &out)
        : prog_(prog), fn_(fn), out_(out),
          regLimit_(fn.nextReg),
          predLimit_(std::max<PredId>(fn.nextPred, 1))
    {
        out_.name = fn.name;
        sizeFrame();
        for (RegId p : fn.params)
            out_.params.push_back(p);
        one_ = constant(1);
    }

    void decode()
    {
        const auto nBlocks = static_cast<std::uint32_t>(fn_.blocks.size());
        out_.blockStart.assign(nBlocks + 1, 0);
        std::vector<BlockId> dead;
        for (const BasicBlock &bb : fn_.blocks) {
            if (bb.dead) {
                dead.push_back(bb.id);
                continue;
            }
            out_.blockStart[bb.id] =
                static_cast<std::uint32_t>(out_.ops.size());
            for (const Operation &op : bb.ops)
                out_.ops.push_back(decodeOp(op));
            if (bb.fallthrough == kNoBlock) {
                out_.ops.push_back(blockFault(
                    "fell off block " + bb.name + " in " + fn_.name));
            } else {
                IrOp fall;
                fall.handler = IrOp::FALL;
                fall.guard = never();
                fall.target = block(bb.fallthrough);
                out_.ops.push_back(fall);
            }
        }
        out_.blockStart[nBlocks] =
            static_cast<std::uint32_t>(out_.ops.size());
        out_.ops.push_back(blockFault("fell off CFG in " + fn_.name));
        if (!dead.empty()) {
            const auto pc = static_cast<std::uint32_t>(out_.ops.size());
            out_.ops.push_back(
                blockFault("executing dead block in " + fn_.name));
            for (BlockId b : dead)
                out_.blockStart[b] = pc;
        }
        out_.entry = block(fn_.entry);
    }

  private:
    /** Size the frame by what the live code references. */
    void sizeFrame()
    {
        std::uint32_t regs = 0, preds = 1;
        for (RegId p : fn_.params)
            regs = std::max(regs, p + 1);
        auto note = [&](const Operand &o) {
            const auto next = static_cast<std::uint32_t>(o.value) + 1;
            if (o.isReg() && o.value >= 0 && o.value < regLimit_)
                regs = std::max(regs, next);
            if (o.isPred() && o.value >= 0 && o.value < predLimit_)
                preds = std::max(preds, next);
        };
        for (const BasicBlock &bb : fn_.blocks) {
            if (bb.dead)
                continue;
            for (const Operation &op : bb.ops) {
                for (const Operand &o : op.srcs)
                    note(o);
                for (const Operand &o : op.dsts)
                    note(o);
                if (op.guard < predLimit_)
                    preds = std::max(preds, op.guard + 1);
            }
        }
        out_.numRegs = regs;
        out_.numPreds = preds;
    }

    /** Slot of pred 0, which nothing writes: reads as 0. */
    std::uint32_t never() const { return out_.numRegs; }

    std::uint32_t constant(std::int64_t v)
    {
        auto [it, fresh] = constSlot_.try_emplace(
            v, static_cast<std::uint32_t>(out_.consts.size()));
        if (fresh)
            out_.consts.push_back(v);
        return out_.numRegs + out_.numPreds + it->second;
    }

    /** Valid block id, or the "fell off CFG" sentinel. */
    BlockId block(BlockId b) const
    {
        const auto n = static_cast<BlockId>(fn_.blocks.size());
        return b < n ? b : n;
    }

    std::uint32_t fault(const std::string &msg)
    {
        out_.faults.push_back(msg);
        return static_cast<std::uint32_t>(out_.faults.size() - 1);
    }

    IrOp blockFault(const std::string &msg)
    {
        IrOp f;
        f.handler = IrOp::FAULT;
        f.guard = one_;
        f.target = fault(msg);
        return f;
    }

    /** Slot of source operand @p i, or an error in why_. */
    std::uint32_t src(const Operation &op, size_t i)
    {
        if (i >= op.srcs.size()) {
            why_ = "missing source operand";
            return 0;
        }
        return read(op.srcs[i]);
    }

    std::uint32_t read(const Operand &o)
    {
        switch (o.kind) {
          case OperandKind::REG:
            if (o.value < 0 || o.value >= regLimit_) {
                why_ = "register out of range r" +
                       std::to_string(o.value);
                return 0;
            }
            return static_cast<std::uint32_t>(o.value);
          case OperandKind::IMM:
            return constant(o.value);
          case OperandKind::PRED:
            if (o.value < 0 || o.value >= predLimit_) {
                why_ = "pred out of range";
                return 0;
            }
            return out_.numRegs + static_cast<std::uint32_t>(o.value);
          default:
            why_ = "unreadable operand kind";
            return 0;
        }
    }

    std::uint32_t dstReg(const Operation &op, size_t i = 0)
    {
        if (i >= op.dsts.size() || !op.dsts[i].isReg() ||
            op.dsts[i].value < 0 || op.dsts[i].value >= regLimit_) {
            why_ = "bad register destination";
            return 0;
        }
        return static_cast<std::uint32_t>(op.dsts[i].value);
    }

    std::uint32_t predDst(PredDefKind k, const Operand &d)
    {
        if (k == PredDefKind::NONE)
            return 0;
        if (!d.isPred()) {
            why_ = "interpreter requires pred-register destinations";
            return 0;
        }
        if (d.value <= 0 || d.value >= predLimit_) {
            why_ = "bad pred destination";
            return 0;
        }
        return out_.numRegs + static_cast<std::uint32_t>(d.value);
    }

    std::uint32_t extra(const std::vector<Operand> &list, bool dsts)
    {
        const auto begin = static_cast<std::uint32_t>(out_.extra.size());
        for (const Operand &o : list) {
            if (dsts && !o.isReg()) {
                why_ = "bad register destination";
                out_.extra.push_back(0);
                continue;
            }
            out_.extra.push_back(read(o));
        }
        return begin;
    }

    IrOp decodeOp(const Operation &op)
    {
        why_.clear();
        IrOp d;
        d.handler = handlerOf(op.op);
        d.cond = op.cond;
        if (isBranch(op.op))
            d.flags |= kBranch;
        if (op.guard == kNoPred)
            d.guard = one_;
        else if (op.guard < predLimit_)
            d.guard = out_.numRegs + op.guard;
        else
            return opFault(d, "guard pred out of range p" +
                                  std::to_string(op.guard), true);

        switch (op.op) {
          case Opcode::NOP:
            break;
          case Opcode::MOV:
          case Opcode::ABS:
          case Opcode::ITOF:
          case Opcode::FTOI:
            d.dst = dstReg(op);
            d.src[0] = src(op, 0);
            break;
          case Opcode::SELECT:
            d.dst = dstReg(op);
            for (size_t i = 0; i < 3; ++i)
                d.src[i] = src(op, i);
            break;
          case Opcode::LD_B:
          case Opcode::LD_H:
          case Opcode::LD_W:
            d.dst = dstReg(op);
            d.src[0] = src(op, 0);
            d.src[1] = src(op, 1);
            if (op.speculative)
                d.flags |= kSpeculative;
            break;
          case Opcode::ST_B:
          case Opcode::ST_H:
          case Opcode::ST_W:
            for (size_t i = 0; i < 3; ++i)
                d.src[i] = src(op, i);
            break;
          case Opcode::PRED_DEF:
            // The guard is an input of the define (Table 2), not a
            // nullification condition.
            d.src[2] = d.guard;
            d.guard = one_;
            d.src[0] = src(op, 0);
            d.src[1] = src(op, 1);
            if (op.dsts.empty()) {
                why_ = "pred_def without destination";
                break;
            }
            d.k0 = op.defKind0;
            d.dst = predDst(op.defKind0, op.dsts[0]);
            if (op.dsts.size() > 1) {
                d.k1 = op.defKind1;
                d.target = predDst(op.defKind1, op.dsts[1]);
            }
            if (static_cast<unsigned>(d.k0) > 8 ||
                static_cast<unsigned>(d.k1) > 8)
                why_ = "bad pred def kind";
            return why_.empty() ? d : opFault(d, why_, true);
          case Opcode::BR:
          case Opcode::BR_WLOOP:
            d.src[0] = src(op, 0);
            d.src[1] = src(op, 1);
            d.target = block(op.target);
            break;
          case Opcode::JUMP:
          case Opcode::BR_CLOOP:
          case Opcode::REC_WLOOP:
          case Opcode::EXEC_WLOOP:
            d.target = block(op.target);
            break;
          case Opcode::REC_CLOOP:
          case Opcode::EXEC_CLOOP:
            d.src[0] = src(op, 0);
            d.target = block(op.target);
            break;
          case Opcode::CALL:
            if (op.callee >= prog_.functions.size()) {
                why_ = "call to unknown function";
                break;
            }
            if (op.srcs.size() > 0xffff || op.dsts.size() > 0xff) {
                why_ = "too many call operands";
                break;
            }
            d.target = op.callee;
            d.nArgs = static_cast<std::uint16_t>(op.srcs.size());
            d.nRets = static_cast<std::uint8_t>(op.dsts.size());
            d.src[0] = extra(op.srcs, false);
            extra(op.dsts, true);
            break;
          case Opcode::RET:
            if (op.srcs.size() > 0xffff) {
                why_ = "too many return values";
                break;
            }
            d.nArgs = static_cast<std::uint16_t>(op.srcs.size());
            d.src[0] = extra(op.srcs, false);
            break;
          default:
            // Binary ALU family.
            if (op.op >= Opcode::NUM_OPCODES) {
                why_ = "evalAlu on non-ALU opcode";
                break;
            }
            d.dst = dstReg(op);
            d.src[0] = src(op, 0);
            d.src[1] = src(op, 1);
            break;
        }
        return why_.empty() ? d : opFault(d, why_, false);
    }

    /**
     * A malformed op: it faults when it executes. It keeps its guard
     * (a nullified op reads no operands, as in the tree-walker) unless
     * @p unguarded.
     */
    IrOp opFault(IrOp d, const std::string &why, bool unguarded)
    {
        IrOp f;
        f.handler = IrOp::FAULT;
        f.flags = d.flags;
        f.guard = unguarded ? one_ : d.guard;
        f.target = fault(why + " in " + fn_.name);
        return f;
    }

    const Program &prog_;
    const Function &fn_;
    IrFunction &out_;
    /** Valid register / predicate ids, as the tree-walker sizes
     *  its frames. */
    const std::int64_t regLimit_;
    const std::int64_t predLimit_;
    std::map<std::int64_t, std::uint32_t> constSlot_;
    std::uint32_t one_ = 0;
    std::string why_;
};

} // namespace

IrImage
decodeIr(const Program &prog)
{
    IrImage img;
    img.entryFunc = prog.entryFunc;
    img.memory = prog.memory;
    img.checksumBase = prog.checksumBase;
    img.checksumSize = prog.checksumSize;
    img.functions.resize(prog.functions.size());
    for (size_t f = 0; f < prog.functions.size(); ++f) {
        IrFunction &out = img.functions[f];
        FunctionDecoder(prog, prog.functions[f], out).decode();
        out.countBase = img.numCounts;
        img.numCounts +=
            static_cast<std::uint32_t>(out.blockStart.size());
    }
    return img;
}

DecodedInterpreter::DecodedInterpreter(const Program &prog)
    : DecodedInterpreter(decodeIr(prog))
{
}

DecodedInterpreter::DecodedInterpreter(IrImage image)
    : img_(std::move(image))
{
}

std::uint64_t
DecodedInterpreter::blockCount(FuncId f, BlockId b) const
{
    return counts_[img_.functions[f].countBase + b];
}

void
DecodedInterpreter::annotate(Program &prog) const
{
    LBP_ASSERT(prog.functions.size() == img_.functions.size(),
               "annotating a program of another shape");
    for (auto &fn : prog.functions) {
        LBP_ASSERT(fn.blocks.size() + 1 ==
                       img_.functions[fn.id].blockStart.size(),
                   "annotating a program of another shape");
        for (auto &bb : fn.blocks) {
            if (!bb.dead)
                bb.weight = static_cast<double>(blockCount(fn.id, bb.id));
        }
    }
}

ExecResult
DecodedInterpreter::run(const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(img_.entryFunc < img_.functions.size(),
               "program without entry");
    mem_ = img_.memory;
    res_ = ExecResult{};
    counts_.assign(img_.numCounts, 0);
    loops_.clear();
    callDepth_ = 0;

    const IrFunction &entry = img_.functions[img_.entryFunc];
    LBP_ASSERT(++callDepth_ < 200, "call stack overflow in ", entry.name);
    LBP_ASSERT(args.size() == entry.params.size(),
               "argument count mismatch calling ", entry.name);
    initFrame(entry, 0);
    for (size_t i = 0; i < args.size(); ++i)
        stack_[entry.params[i]] = args[i];
    call(img_.entryFunc, 0);

    res_.returns = rets_;
    res_.dynBlocks = std::accumulate(counts_.begin(), counts_.end(),
                                     std::uint64_t{0});
    const std::int64_t base = img_.checksumBase;
    const std::int64_t size = img_.checksumSize;
    if (size <= 0) {
        res_.checksum = fnv1a(nullptr, 0);
    } else {
        const auto ubase = static_cast<std::uint64_t>(base);
        LBP_ASSERT(base >= 0 && ubase <= mem_.size() &&
                       static_cast<std::uint64_t>(size) <=
                           mem_.size() - ubase,
                   "hashRange out of bounds");
        res_.checksum =
            fnv1a(mem_.data() + base, static_cast<size_t>(size));
    }
    return res_;
}

void
DecodedInterpreter::initFrame(const IrFunction &fn, std::size_t base)
{
    const std::size_t need = base + fn.frameSize();
    if (stack_.size() < need)
        stack_.resize(std::max(need, 2 * stack_.size()));
    std::int64_t *const fr = stack_.data() + base;
    std::fill_n(fr, fn.numRegs + fn.numPreds, 0);
    std::copy(fn.consts.begin(), fn.consts.end(),
              fr + fn.numRegs + fn.numPreds);
}

void
DecodedInterpreter::call(std::uint32_t f, std::size_t base)
{
    const IrFunction &fn = img_.functions[f];
    const IrOp *const ops = fn.ops.data();
    const std::uint32_t *const starts = fn.blockStart.data();
    const std::uint32_t *const extra = fn.extra.data();
    std::uint64_t *const counts = counts_.data() + fn.countBase;
    std::uint8_t *const mem = mem_.data();
    const std::uint64_t memSize = mem_.size();
    const std::uint64_t maxOps = maxOps_;
    const std::size_t loopBase = loops_.size();
    std::int64_t *fr = stack_.data() + base;

    // Counters live in locals across the hot loop; res_ holds them
    // across calls.
    std::uint64_t nOps = res_.dynOps;
    std::uint64_t nNullified = res_.dynNullified;
    std::uint64_t nBranches = res_.dynBranches;
    std::uint64_t nTaken = res_.dynTaken;
    auto flush = [&] {
        res_.dynOps = nOps;
        res_.dynNullified = nNullified;
        res_.dynBranches = nBranches;
        res_.dynTaken = nTaken;
    };

    BlockId cur = fn.entry;
    std::uint32_t pc = starts[cur];
    ++counts[cur];
    auto enter = [&](BlockId b) {
        cur = b;
        pc = starts[b];
        ++counts[b];
    };
    // A taken transfer that leaves the active hardware loop's body
    // cancels its context.
    auto cancelLoops = [&](BlockId target) {
        while (loops_.size() > loopBase && loops_.back().head == cur &&
               target != loops_.back().head)
            loops_.pop_back();
    };
    // Leave a finished loop context: an EXEC_* resumes after itself.
    auto retire = [&] {
        const LoopEntry le = loops_.back();
        loops_.pop_back();
        if (le.isExec) {
            cur = le.resumeBlock;
            pc = le.resumePc;
        } else {
            ++pc;
        }
    };

    for (;;) {
        const IrOp &o = ops[pc];
        if (!fr[o.guard]) {
            // FALL ops read the never-set predicate 0, so block ends
            // take this path too.
            if (o.handler == IrOp::FALL) {
                enter(o.target);
                continue;
            }
            LBP_ASSERT(++nOps <= maxOps, "operation budget exceeded in ",
                       fn.name);
            ++nNullified;
            if (o.flags & kBranch)
                ++nBranches;
            ++pc;
            continue;
        }
        LBP_ASSERT(++nOps <= maxOps, "operation budget exceeded in ",
                   fn.name);

        const std::int64_t a = fr[o.src[0]];
        const std::int64_t b = fr[o.src[1]];
        switch (static_cast<Opcode>(o.handler)) {
          case Opcode::NOP:
            ++pc;
            break;
          case Opcode::MOV:
            fr[o.dst] = a;
            ++pc;
            break;
          case Opcode::ABS:
            fr[o.dst] = wrapAbs(a);
            ++pc;
            break;
          case Opcode::ITOF:
            fr[o.dst] = asBits(static_cast<double>(a));
            ++pc;
            break;
          case Opcode::FTOI:
            fr[o.dst] = ftoi(asDouble(a));
            ++pc;
            break;
          case Opcode::SELECT:
            fr[o.dst] = a ? b : fr[o.src[2]];
            ++pc;
            break;

          case Opcode::LD_B:
          case Opcode::LD_H:
          case Opcode::LD_W: {
            const std::int64_t addr = wrapAdd(a, b);
            const Opcode op = static_cast<Opcode>(o.handler);
            const unsigned need =
                op == Opcode::LD_B ? 1 : op == Opcode::LD_H ? 2 : 4;
            if (addr < 0 || static_cast<std::uint64_t>(addr) + need >
                                memSize) {
                // The speculative (non-faulting) form delivers 0.
                LBP_ASSERT(o.flags & kSpeculative,
                           addr < 0 ? "negative load address"
                                    : "load out of bounds @",
                           addr);
                fr[o.dst] = 0;
                ++pc;
                break;
            }
            std::uint32_t raw = 0;
            for (unsigned i = 0; i < need; ++i)
                raw |= static_cast<std::uint32_t>(mem[addr + i])
                       << (8 * i);
            fr[o.dst] = op == Opcode::LD_B   ? static_cast<std::int8_t>(raw)
                        : op == Opcode::LD_H ? static_cast<std::int16_t>(raw)
                                             : static_cast<std::int32_t>(raw);
            ++pc;
            break;
          }

          case Opcode::ST_B:
          case Opcode::ST_H:
          case Opcode::ST_W: {
            const std::int64_t addr = wrapAdd(a, b);
            const Opcode op = static_cast<Opcode>(o.handler);
            const unsigned need =
                op == Opcode::ST_B ? 1 : op == Opcode::ST_H ? 2 : 4;
            LBP_ASSERT(addr >= 0, "negative store address");
            LBP_ASSERT(static_cast<std::uint64_t>(addr) + need <= memSize,
                       "store out of bounds @", addr);
            const std::int64_t v = fr[o.src[2]];
            for (unsigned i = 0; i < need; ++i)
                mem[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
            ++pc;
            break;
          }

          case Opcode::PRED_DEF: {
            const unsigned gc = (fr[o.src[2]] != 0) * 2 +
                                evalCond(o.cond, a, b);
            const std::int8_t w0 =
                kPredWrite[static_cast<unsigned>(o.k0)][gc];
            if (w0 >= 0)
                fr[o.dst] = w0;
            const std::int8_t w1 =
                kPredWrite[static_cast<unsigned>(o.k1)][gc];
            if (w1 >= 0)
                fr[o.target] = w1;
            ++pc;
            break;
          }

          case Opcode::BR:
          case Opcode::BR_WLOOP: {
            ++nBranches;
            const bool taken = evalCond(o.cond, a, b);
            if (static_cast<Opcode>(o.handler) == Opcode::BR_WLOOP &&
                !taken && loops_.size() > loopBase &&
                !loops_.back().counted) {
                // While-loop exit: retire the hardware loop context.
                retire();
                break;
            }
            if (taken) {
                ++nTaken;
                cancelLoops(o.target);
                enter(o.target);
            } else {
                ++pc;
            }
            break;
          }

          case Opcode::JUMP:
            ++nBranches;
            ++nTaken;
            cancelLoops(o.target);
            enter(o.target);
            break;

          case Opcode::BR_CLOOP: {
            ++nBranches;
            LBP_ASSERT(loops_.size() > loopBase && loops_.back().counted,
                       "br.cloop without live counted-loop context in ",
                       fn.name);
            if (--loops_.back().remaining > 0) {
                ++nTaken;
                enter(o.target);
            } else {
                retire();
            }
            break;
          }

          case Opcode::REC_CLOOP:
            LBP_ASSERT(a >= 1, "rec_cloop with count ", a, " in ",
                       fn.name);
            loops_.push_back({true, false, a, o.target, kNoBlock, 0});
            ++pc;
            break;

          case Opcode::REC_WLOOP:
            loops_.push_back({false, false, 0, o.target, kNoBlock, 0});
            ++pc;
            break;

          case Opcode::EXEC_CLOOP:
            LBP_ASSERT(a >= 1, "exec_cloop with count ", a);
            loops_.push_back({true, true, a, o.target, cur, pc + 1});
            enter(o.target);
            break;

          case Opcode::EXEC_WLOOP:
            loops_.push_back({false, true, 0, o.target, cur, pc + 1});
            enter(o.target);
            break;

          case Opcode::CALL: {
            const IrFunction &callee = img_.functions[o.target];
            LBP_ASSERT(++callDepth_ < 200, "call stack overflow in ",
                       callee.name);
            LBP_ASSERT(o.nArgs == callee.params.size(),
                       "argument count mismatch calling ", callee.name);
            const std::size_t cbase = base + fn.frameSize();
            initFrame(callee, cbase);
            fr = stack_.data() + base;
            std::int64_t *const cfr = stack_.data() + cbase;
            const std::uint32_t *const x = extra + o.src[0];
            for (unsigned i = 0; i < o.nArgs; ++i)
                cfr[callee.params[i]] = fr[x[i]];
            flush();
            call(o.target, cbase);
            nOps = res_.dynOps;
            nNullified = res_.dynNullified;
            nBranches = res_.dynBranches;
            nTaken = res_.dynTaken;
            fr = stack_.data() + base;
            LBP_ASSERT(rets_.size() >= o.nRets,
                       "not enough return values from ", callee.name);
            for (unsigned i = 0; i < o.nRets; ++i)
                fr[x[o.nArgs + i]] = rets_[i];
            ++pc;
            break;
          }

          case Opcode::RET: {
            const std::uint32_t *const x = extra + o.src[0];
            rets_.resize(o.nArgs);
            for (unsigned i = 0; i < o.nArgs; ++i)
                rets_[i] = fr[x[i]];
            --callDepth_;
            loops_.resize(loopBase);
            flush();
            return;
          }

#define LBP_ALU_CASE(OP)                                               \
          case Opcode::OP:                                               \
            fr[o.dst] = evalBinaryAlu(Opcode::OP, o.cond, a, b);         \
            ++pc;                                                        \
            break;
          LBP_BINARY_ALU_OPS(LBP_ALU_CASE)
#undef LBP_ALU_CASE

          default:
            // IrOp::FAULT: decoding maps every other op to a case
            // above, and FALL ops never pass their guard.
            LBP_PANIC(fn.faults[o.target]);
        }
    }
}

ExecResult
profileProgram(Program &prog, const std::vector<std::int64_t> &args)
{
    DecodedInterpreter interp(prog);
    const ExecResult r = interp.run(args);
    interp.annotate(prog);
    return r;
}

} // namespace lbp
