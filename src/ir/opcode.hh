/**
 * @file
 * Opcode and comparison-condition enumerations, with classification
 * helpers used by the verifier, scheduler, and simulator.
 */

#ifndef LBP_IR_OPCODE_HH
#define LBP_IR_OPCODE_HH

#include <cstdint>
#include <string>

namespace lbp
{

/**
 * Operation codes for the lbp VLIW IR.
 *
 * The set mirrors a DSP-flavoured 32-bit ISA: integer ALU ops including
 * the saturating arithmetic the paper notes is provided by intrinsic
 * emulation, a small floating-point set, byte/half/word memory ops,
 * predicate defines with HPL-PD/IMPACT semantics (Table 2), branches
 * including the special counted-loop form, and the four loop-buffer
 * management operations of Table 3.
 */
enum class Opcode : std::uint8_t
{
    // Integer ALU.
    ADD, SUB, MUL, DIV, REM,
    AND, OR, XOR, SHL, SHR, SHRA,
    MOV, ABS, MIN, MAX,
    SATADD, SATSUB,         // saturating 16-bit arithmetic intrinsics
    CMP,                    // compare into a general register (0/1)
    SELECT,                 // dst = src0 ? src1 : src2 (cond-move family)

    // Floating point (double precision bit-cast in 64-bit registers).
    FADD, FSUB, FMUL, FDIV, ITOF, FTOI,

    // Memory. Address is src0 + src1 (src1 usually immediate).
    LD_B, LD_H, LD_W,       // sign-extending loads
    ST_B, ST_H, ST_W,

    // Predicate define (Table 2). Up to two predicate destinations.
    PRED_DEF,

    // Control flow.
    BR,                     // conditional: compare src0 cond src1
    JUMP,                   // unconditional (guardable => predicated jump)
    BR_CLOOP,               // counted loop-back branch (hardware count)
    BR_WLOOP,               // while-loop loop-back branch (conditional)
    CALL,
    RET,

    // Loop buffer management (Table 3). Branch-unit operations.
    REC_CLOOP, REC_WLOOP, EXEC_CLOOP, EXEC_WLOOP,

    NOP,

    NUM_OPCODES
};

/**
 * The binary ALU family: X(OP) once per two-source ALU opcode
 * (ir/alu_ops.hh evalBinaryAlu); the decoded executors stamp one
 * handler per entry.
 */
#define LBP_BINARY_ALU_OPS(X)                                           \
    X(ADD) X(SUB) X(MUL) X(DIV) X(REM) X(AND) X(OR) X(XOR) X(SHL)       \
    X(SHR) X(SHRA) X(MIN) X(MAX) X(SATADD) X(SATSUB) X(CMP) X(FADD)     \
    X(FSUB) X(FMUL) X(FDIV)

/** Comparison conditions for CMP / BR / PRED_DEF. */
enum class CmpCond : std::uint8_t
{
    EQ, NE, LT, LE, GT, GE, LTU, GEU,
    TRUE_,   // always true (canonical predicate set)
    FALSE_,  // always false (canonical predicate clear)
};

/**
 * Predicate define destination kinds (Table 2 of the paper).
 * NONE marks an unused second destination.
 */
enum class PredDefKind : std::uint8_t
{
    NONE, UT, UF, OT, OF, AT, AF, CT, CF
};

/** Functional-unit classes of the modeled machine (Figure 6). */
enum class UnitClass : std::uint8_t
{
    IALU, IMUL, MEM, BR, FPU, PRED,
    NUM_CLASSES
};

const char *opcodeName(Opcode op);
const char *condName(CmpCond c);
const char *predDefKindName(PredDefKind k);
const char *unitClassName(UnitClass u);

/** True for branches, calls, returns, and buffer-management ops. */
bool isControl(Opcode op);

/** True for ops with a branch target operand. */
bool isBranch(Opcode op);

/** True for the four Table-3 buffer management ops. */
bool isBufferOp(Opcode op);

/** True for loads. */
bool isLoad(Opcode op);

/** True for stores. */
bool isStore(Opcode op);

/** Functional-unit class the opcode executes on. */
UnitClass unitClassOf(Opcode op);

/** Execution latency in cycles (paper §7 machine description). */
int latencyOf(Opcode op);

/** Evaluate a comparison condition on two signed 64-bit values. */
bool evalCond(CmpCond c, std::int64_t a, std::int64_t b);

/** The condition testing the opposite outcome. */
CmpCond negateCond(CmpCond c);

} // namespace lbp

#endif // LBP_IR_OPCODE_HH
