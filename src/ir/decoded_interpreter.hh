/**
 * @file
 * Decoded IR interpreter: the fast twin of the tree-walking reference
 * interpreter (ir/interpreter.hh), used for the compiler's profile
 * runs and stage verification.
 *
 * decodeIr() lowers a Program once into an IrImage of dense
 * per-function arrays:
 *
 *  - one flat op array per function, each block's ops followed by a
 *    FALL pseudo-op to its fall-through successor, with block start
 *    indices;
 *  - operand kinds resolved to frame slots: every source read is one
 *    indexed load from a frame laid out as [registers | predicates |
 *    constants], immediates living in constant slots after the
 *    registers and predicates;
 *  - malformed operands (out-of-range registers, unreadable kinds,
 *    bad targets, dead blocks) decoded into FAULT ops that raise the
 *    tree-walker's fault when, and only when, they execute.
 *
 * Execution uses one contiguous frame stack and one loop-context
 * stack for all calls, and dense per-block entry counters. Results
 * (every ExecResult field, memory, block counts) and faults (op
 * budget, call depth, out-of-bounds access, bad loop count, division
 * by zero) match the tree-walker; tests/test_interpreter.cc and
 * tests/test_differential.cc pin that.
 *
 * An IrImage holds everything execution depends on — ops, frame
 * layout, memory image, checksum region — and nothing it does not
 * (block weights, op ids, the slot-predication sensitivity bit). The
 * interpreter is a pure function of (image, args), so two equal images
 * give identical results: core/stage_verifier relies on that.
 */

#ifndef LBP_IR_DECODED_INTERPRETER_HH
#define LBP_IR_DECODED_INTERPRETER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/interpreter.hh"
#include "ir/program.hh"

namespace lbp
{

/** One decoded operation: 32 bytes, no padding. */
struct IrOp
{
    /** An Opcode value, or one of the IrOp::FALL/FAULT pseudo-ops. */
    std::uint8_t handler = 0;
    CmpCond cond = CmpCond::EQ;
    PredDefKind k0 = PredDefKind::NONE;
    PredDefKind k1 = PredDefKind::NONE;
    /** Speculative load / branch (counted when nullified) bits. */
    std::uint8_t flags = 0;
    /** CALL: return registers (in `extra` after the arguments). */
    std::uint8_t nRets = 0;
    /** CALL arguments / RET values: slots in IrFunction::extra. */
    std::uint16_t nArgs = 0;
    /** Guard slot; the op is nullified when it reads 0. */
    std::uint32_t guard = 0;
    /** Destination register slot; PRED_DEF: first predicate slot. */
    std::uint32_t dst = 0;
    /**
     * Source slots. PRED_DEF: src[2] is its guard input; CALL/RET:
     * src[0] is the first index of the operand list in `extra`.
     */
    std::uint32_t src[3] = {0, 0, 0};
    /**
     * Branch/loop target block; CALL: callee; PRED_DEF: second
     * predicate slot; FAULT: index into IrFunction::faults.
     */
    std::uint32_t target = 0;

    /** Block-end pseudo-op: enter block `target`. */
    static constexpr std::uint8_t FALL =
        static_cast<std::uint8_t>(Opcode::NUM_OPCODES);
    /** Raise IrFunction::faults[target]. */
    static constexpr std::uint8_t FAULT = FALL + 1;

    bool operator==(const IrOp &) const = default;
};

/** Decoded form of one Function. */
struct IrFunction
{
    std::string name;
    std::vector<IrOp> ops;
    /** First op of each block, indexed by BlockId (one sentinel
     *  block past the end faults "fell off CFG"). */
    std::vector<std::uint32_t> blockStart;
    /** CALL argument/return and RET value slot lists. */
    std::vector<std::uint32_t> extra;
    /** Constant slot values, in slot order after the predicates. */
    std::vector<std::int64_t> consts;
    /** Messages of this function's FAULT ops. */
    std::vector<std::string> faults;
    /** Parameter register slots, in order. */
    std::vector<std::uint32_t> params;
    /**
     * Registers and predicates the live code references (not the
     * allocation counters): a stage that allocates and then abandons
     * a register or predicate leaves an equal image.
     */
    std::uint32_t numRegs = 0;
    std::uint32_t numPreds = 0;
    BlockId entry = kNoBlock;
    /** Offset of this function's blocks in the block-count array. */
    std::uint32_t countBase = 0;

    std::uint32_t frameSize() const
    {
        return numRegs + numPreds +
               static_cast<std::uint32_t>(consts.size());
    }

    bool operator==(const IrFunction &) const = default;
};

/** Decoded, self-contained image of a Program. */
struct IrImage
{
    std::vector<IrFunction> functions;
    FuncId entryFunc = kNoFunc;
    std::vector<std::uint8_t> memory;
    std::int64_t checksumBase = 0;
    std::int64_t checksumSize = 0;
    /** Size of the block-count array (all functions' blocks). */
    std::uint32_t numCounts = 0;

    bool operator==(const IrImage &) const = default;
};

/** Decode @p prog. Never faults: bad IR decodes into FAULT ops. */
IrImage decodeIr(const Program &prog);

/** Interpreter over an IrImage (it owns the image). */
class DecodedInterpreter
{
  public:
    explicit DecodedInterpreter(const Program &prog);
    explicit DecodedInterpreter(IrImage image);

    /** Cap on executed operations (guards against runaway loops). */
    void setMaxOps(std::uint64_t n) { maxOps_ = n; }

    /**
     * Run the entry function with @p args. Memory and block counts
     * are re-initialized on every call.
     */
    ExecResult run(const std::vector<std::int64_t> &args = {});

    /** Final memory after run(). */
    const std::vector<std::uint8_t> &memory() const { return mem_; }

    /** Entries of block @p b of function @p f in the last run(). */
    std::uint64_t blockCount(FuncId f, BlockId b) const;

    /** Write the last run's block counts onto live blocks' weights. */
    void annotate(Program &prog) const;

    const IrImage &image() const { return img_; }

  private:
    struct LoopEntry
    {
        bool counted = false;
        bool isExec = false;
        std::int64_t remaining = 0;
        BlockId head = kNoBlock;
        /** EXEC_*: where to resume on loop exit. */
        BlockId resumeBlock = kNoBlock;
        std::uint32_t resumePc = 0;
    };

    /** Run function @p f on the initialized frame at stack_[base]. */
    void call(std::uint32_t f, std::size_t base);

    /** Zero @p fn's registers and predicates at stack_[base] and load
     *  its constants (may reallocate stack_). */
    void initFrame(const IrFunction &fn, std::size_t base);

    IrImage img_;
    std::uint64_t maxOps_ = 2'000'000'000ull;
    std::vector<std::uint8_t> mem_;
    std::vector<std::int64_t> stack_;
    std::vector<LoopEntry> loops_;
    std::vector<std::int64_t> rets_;
    std::vector<std::uint64_t> counts_;
    ExecResult res_;
    int callDepth_ = 0;
};

/**
 * Interpret @p prog with @p args on the decoded interpreter and write
 * the block counts back as block weights (what profile-guided
 * inlining, hyperblock formation and buffer allocation read).
 */
ExecResult profileProgram(Program &prog,
                          const std::vector<std::int64_t> &args = {});

} // namespace lbp

#endif // LBP_IR_DECODED_INTERPRETER_HH
