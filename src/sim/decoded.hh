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
 * loads, all stores, the binary ALU family, REC/EXEC, BR/BR_WLOOP).
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
    ALU,       ///< two-source arithmetic/logic/compare family
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

    ExecHandler handler = ExecHandler::ALU;
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
 * A complete shareable predecode of one SchedProgram: the interned
 * loop table plus the micro-op image built against it. Several sim
 * instances can run over one image concurrently (it is read-only at
 * run time), which is what the batched bench sweep does to amortize
 * decode across a buffer-size sweep.
 */
struct DecodedImage
{
    LoopTable loops;
    DecodedProgram program;
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
