/**
 * @file
 * Predecoded execution image for the VLIW simulator's fast path.
 *
 * The reference interpreter re-resolves every operand kind through a
 * switch, chases the SchedOp/Operation vector-of-vectors layout, and
 * re-derives loop metadata on every activation. The predecode pass
 * lowers a SchedProgram once into flat, contiguous arrays:
 *
 *  - operands resolved to direct register / immediate / predicate
 *    slots (XSrc), validated against frame sizes at decode time so
 *    the executor needs no per-read range checks;
 *  - one POD MicroOp per real (non-NOP) operation, bundle extents as
 *    index ranges into one dense per-function op array;
 *  - the static execution facts the datapath would otherwise
 *    re-derive: per op, can it ever be nullified (alwaysExec); per
 *    bundle, its sensitive-op count and whether its writes may
 *    commit in place (direct);
 *  - loop-carrying ops (REC/EXEC) annotated with their interned dense
 *    loop id and static body metadata (length, II, image size);
 *  - variable-length CALL/RET operand lists spilled to side arrays.
 *
 * The LoopTable interns every static LoopKey to a dense integer id in
 * LoopKey sort order, which turns SimStats.loops into a flat vector
 * whose index order matches the iteration order of the old
 * std::map<LoopKey, LoopStats>.
 */

#ifndef LBP_SIM_DECODED_HH
#define LBP_SIM_DECODED_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/vliw_sim.hh"

namespace lbp
{

/**
 * Dense interning of every static REC/EXEC loop in a SchedProgram.
 * Ids are positions in the LoopKey sort order.
 */
struct LoopTable
{
    std::vector<LoopKey> keys;        ///< sorted; index = dense id
    std::vector<LoopStats> proto;     ///< prefilled static fields

    /** Dense id of @p key; fatal if the key is unknown. */
    int idOf(const LoopKey &key) const;
};

/** Build the loop table by scanning all scheduled REC/EXEC ops. */
LoopTable buildLoopTable(const SchedProgram &code);

/** A resolved source operand. */
struct XSrc
{
    enum Kind : std::uint8_t { REG, IMM, PRED };
    Kind kind = IMM;
    std::uint32_t idx = 0;     ///< register / predicate index
    std::int64_t imm = 0;      ///< immediate payload
};

/**
 * Dispatch class of a MicroOp, assigned once at predecode. The
 * executor dispatches on this byte through a computed-goto label
 * table (sim/dispatch.hh) instead of re-classifying the full Opcode
 * per execution. Opcodes that share a handler share a value (all
 * loads, all stores, REC/EXEC, BR/BR_WLOOP); each binary ALU opcode
 * has its own (ALU_<OP>), so its handler runs that one op body.
 */
enum class ExecHandler : std::uint8_t
{
    PRED_DEF,
    LOAD,
    STORE,
    MOV,
    ABS,
    ITOF,
    FTOI,
    SELECT,
    BR,        ///< BR and BR_WLOOP (cond + possible wloop backedge)
    JUMP,
    BR_CLOOP,
    LOOP,      ///< REC_CLOOP/REC_WLOOP/EXEC_CLOOP/EXEC_WLOOP
    CALL,
    RET,
#define LBP_ALU_HANDLER_ENUM(OP) ALU_##OP,
    LBP_BINARY_ALU_OPS(LBP_ALU_HANDLER_ENUM)
#undef LBP_ALU_HANDLER_ENUM
    COUNT,
};

/** Handler class for @p op (NOPs never reach the executor). */
ExecHandler classifyHandler(Opcode op);

/** One predecoded operation (POD, fixed size). */
struct MicroOp
{
    Opcode op = Opcode::NOP;
    CmpCond cond = CmpCond::EQ;
    PredDefKind k0 = PredDefKind::NONE;
    PredDefKind k1 = PredDefKind::NONE;

    ExecHandler handler{}; ///< classifyHandler(op), set at predecode
    /**
     * The op can never be nullified: no guard and not sensitive, so
     * it executes in either PredMode. Lets the datapath's guard check
     * (sim/bundle_exec.hh) skip the predicate reads.
     */
    bool alwaysExec = false;

    std::int8_t slot = kNoSlot;
    bool sensitive = false;
    bool speculative = false;
    bool counted = false;       ///< REC/EXEC: counted loop
    bool pipelined = false;     ///< REC/EXEC: body is modulo-scheduled

    PredId guard = kNoPred;
    std::int32_t dstReg = -1;   ///< primary register destination

    /** PRED_DEF destinations: 0 = none, 1 = predicate, 2 = slot. */
    std::uint8_t pdKind0 = 0, pdKind1 = 0;
    std::int32_t pdIdx0 = 0, pdIdx1 = 0;

    XSrc src[3];

    BlockId target = kNoBlock;
    FuncId callee = kNoFunc;
    std::int32_t bufAddr = -1;

    // REC/EXEC static loop metadata.
    std::int32_t loopId = -1;
    std::int32_t bodyLen = 0;
    std::int32_t ii = 0;
    std::int32_t minII = 0;     ///< max(ResMII, RecMII) when pipelined
    std::int32_t imageOps = 0;

    // CALL argument / RET value list (XSrc) in extraSrcs.
    std::uint32_t xsrcBegin = 0, xsrcCount = 0;
    // CALL return-register list in extraDsts.
    std::uint32_t xdstBegin = 0, xdstCount = 0;
};

/** Bundle extent in the per-function MicroOp array. */
struct DecodedBundle
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::int32_t sizeOps = 0;   ///< fetch size (compressed encoding)
    std::int32_t sensOps = 0;   ///< slot-sensitive ops (SLOT-mode count)
    /**
     * Writes may commit in place: no op reads a register, predicate
     * or slot an earlier op of the bundle writes (a sensitive op
     * counts as reading its slot in either PredMode), no load follows
     * a store, and at most one slot-predicate write, so the
     * same-cycle slot-conflict check keeps its deferred commit.
     * False is always safe: the bundle then runs two-phase.
     */
    bool direct = false;
};

/** Block extent in the per-function bundle array. */
struct DecodedBlock
{
    std::uint32_t firstBundle = 0;
    std::uint32_t bundleCount = 0;
    BlockId fallthrough = kNoBlock;
    bool valid = false;         ///< scheduled and alive
};

/** Decoded form of one function. */
struct DecodedFunction
{
    std::vector<MicroOp> ops;         ///< dense, NOP-free
    std::vector<DecodedBundle> bundles;
    std::vector<DecodedBlock> blocks; ///< indexed by BlockId
    BlockId entry = kNoBlock;
    std::uint32_t numRegs = 0;
    std::uint32_t numPreds = 1;
    std::vector<RegId> params;
    std::uint32_t numReturns = 0;
    const Function *fn = nullptr;     ///< for diagnostics only
};

/** Decoded form of a program. */
struct DecodedProgram
{
    const SchedProgram *code = nullptr;
    std::vector<DecodedFunction> functions;
    std::vector<XSrc> extraSrcs;
    std::vector<std::int32_t> extraDsts;
};

/**
 * Predecode @p code. The pass validates what the reference
 * interpreter asserts per-access (operand ranges, slot assignment of
 * sensitive ops, one control transfer shape) so the executor can run
 * without those checks. @p loops must be the table built from the
 * same (re-linked) SchedProgram.
 */
DecodedProgram decodeProgram(const SchedProgram &code,
                             const LoopTable &loops);

/**
 * One control-accounting event of a decoded run, in program order.
 * Every event first charges the head-block issue of the innermost
 * live activation since the previous event (headBundles bundles of
 * headOps ops; zero when no activation's head block issued), then
 * applies its kind. Runs of identical Back events collapse into one
 * event with repeat > 1.
 */
struct ActivationEvent
{
    enum class Kind : std::uint8_t
    {
        Enter,       ///< REC/EXEC: a new activation (ActivationStream::enters)
        Arrive,      ///< fetch reached the top's head bundle 0
        Back,        ///< a taken backedge of the top
        CountedExit, ///< the top's counted exit (BR_CLOOP not taken)
        WhileExit,   ///< the top's while exit (BR_WLOOP not taken)
        Cancel,      ///< a taken transfer out of the head cancelled the top
    };
    /** Back: fetch then arrived at head bundle 0 (the loop-back). */
    static constexpr std::uint8_t kArrives = 1;
    /**
     * Arrive: by a plain taken branch issued in the head block;
     * exits: a plain taken branch left the exit's bundle too. Both
     * mark what trace replay would end as a side exit.
     */
    static constexpr std::uint8_t kSide = 2;

    Kind kind = Kind::Enter;
    std::uint8_t flags = 0;
    std::uint32_t repeat = 1;
    std::uint64_t headBundles = 0;
    std::uint64_t headOps = 0;
};

/**
 * The compact record of one functional run, indexed by loop
 * activation rather than by bundle: everything the buffer-model
 * accountant (VliwSim::account) needs to reproduce the run's results
 * at any buffer allocation. The datapath never reads a bufAddr or
 * the loop buffer's residency, so the executed ops, their values and
 * the control path are the same at every size; only fetch source,
 * loop-control penalties and trace replay change with it.
 */
struct ActivationStream
{
    /** Enter payload: the REC/EXEC op and its trip count. */
    struct EnterInfo
    {
        FuncId func = kNoFunc;
        std::uint32_t op = 0;     ///< index into the function's ops
        std::int64_t count = 0;   ///< counted loops: initial remaining
    };

    // The key, with the memo slot's PredMode: the run inputs the
    // stream depends on.
    std::vector<std::int64_t> args;
    std::uint64_t maxBundles = 0;

    std::vector<ActivationEvent> events;
    std::vector<EnterInfo> enters;    ///< one per Enter event, in order

    // Size-independent totals, copied into every accounted run.
    std::uint64_t bundles = 0;
    std::uint64_t opsFetched = 0;
    std::uint64_t opsNullified = 0;
    std::uint64_t opsSensitive = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchesTaken = 0;
    std::uint64_t checksum = 0;
    std::vector<std::int64_t> returns;
    /** Bundles issued outside any live loop's head block. */
    std::uint64_t otherBundles = 0;
    /** Plain taken-branch and call/return redirects. */
    std::uint64_t takenBranchRedirects = 0;
    std::uint64_t callReturnRedirects = 0;
};

/**
 * Per-PredMode activation-stream slots of a DecodedImage. A slot is
 * filled once, by the first DECODED run of a fresh sim over the
 * image, under @c mu (a concurrent first run waits, then accounts);
 * a run that throws leaves it empty. Filled streams are immutable
 * and shared, and live as long as the image.
 */
struct SimMemo
{
    std::mutex mu;
    std::shared_ptr<const ActivationStream> slot[2]; ///< by PredMode
};

/**
 * A complete shareable predecode of one SchedProgram: the interned
 * loop table plus the micro-op image built against it, and the
 * activation-stream memo (SimMemo) the first DECODED run over it
 * fills. Several sim instances can run over one image concurrently,
 * which is what the batched sweeps do to amortize decode — and,
 * through the memo, execution — across a buffer-size sweep.
 */
struct DecodedImage
{
    LoopTable loops;
    DecodedProgram program;
    std::unique_ptr<SimMemo> memo = std::make_unique<SimMemo>();
};

/** Predecode @p code into a self-contained shareable image. */
DecodedImage buildDecodedImage(const SchedProgram &code);

/**
 * Refresh the buffer-allocation-dependent fields of @p img after a
 * reallocateBuffers() pass mutated the SchedProgram it was decoded
 * from: the bufAddr captured on every REC/EXEC MicroOp and in the
 * LoopTable's per-loop prototypes. Everything else in the image —
 * the alwaysExec/direct/sensOps facts included — is
 * allocation-invariant, so a size sweep can decode once and rebind
 * per point instead of re-decoding the whole program.
 */
void rebindBufferAddresses(DecodedImage &img, const SchedProgram &code);

} // namespace lbp

#endif // LBP_SIM_DECODED_HH
