/**
 * @file
 * Value semantics shared by the fast executors — the decoded IR
 * interpreter and the decoded sim's datapath (sim/bundle_exec.hh,
 * run by both the general path and trace replay): 16-bit saturation,
 * the int64 <-> double bit casts, the unary ABS/FTOI conversions,
 * the binary ALU family and the Table-2 predicate-define writes.
 *
 * Integer arithmetic is two's complement with defined overflow:
 * ADD/SUB/MUL (and the SATADD/SATSUB sums before saturation) wrap,
 * INT64_MIN / -1 is INT64_MIN with remainder 0, ABS(INT64_MIN) is
 * INT64_MIN, and FTOI of NaN or an out-of-range value is INT64_MIN
 * (what x86's truncating convert produces). Division by zero faults.
 *
 * The oracles — the tree-walking IR interpreter and the reference sim
 * engine (vliw_sim.cc) — keep their own copies on purpose: the
 * differentials compare the fast paths against them, so an error here
 * must not reach the oracles too.
 */

#ifndef LBP_IR_ALU_OPS_HH
#define LBP_IR_ALU_OPS_HH

#include <algorithm>
#include <cstdint>
#include <limits>

#include "ir/opcode.hh"
#include "support/logging.hh"

namespace lbp
{

inline std::int64_t
sat16(std::int64_t v)
{
    return std::clamp<std::int64_t>(v, -32768, 32767);
}

inline double
asDouble(std::int64_t v)
{
    double d;
    __builtin_memcpy(&d, &v, sizeof(d));
    return d;
}

inline std::int64_t
asBits(double d)
{
    std::int64_t v;
    __builtin_memcpy(&v, &d, sizeof(v));
    return v;
}

inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** |v|, with ABS(INT64_MIN) = INT64_MIN. */
inline std::int64_t
wrapAbs(std::int64_t v)
{
    return v < 0 ? wrapSub(0, v) : v;
}

/** Truncating double -> int64; NaN and out-of-range give INT64_MIN. */
inline std::int64_t
ftoi(double d)
{
    // [-2^63, 2^63) truncates to a representable value; NaN fails
    // both comparisons.
    return d >= -0x1p63 && d < 0x1p63
               ? static_cast<std::int64_t>(d)
               : std::numeric_limits<std::int64_t>::min();
}

/**
 * Result of the two-source ALU op @p op; CMP compares by @p cond.
 * Always inlined: the executors call it with a constant opcode from a
 * per-opcode handler, so each call folds to that opcode's body and
 * an ALU op is dispatched once, not once per handler and again here.
 */
[[gnu::always_inline]] inline std::int64_t
evalBinaryAlu(Opcode op, CmpCond cond, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Opcode::ADD: return wrapAdd(a, b);
      case Opcode::SUB: return wrapSub(a, b);
      case Opcode::MUL: return wrapMul(a, b);
      case Opcode::DIV:
        LBP_ASSERT(b != 0, "div by zero");
        return b == -1 ? wrapSub(0, a) : a / b;
      case Opcode::REM:
        LBP_ASSERT(b != 0, "rem by zero");
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
      case Opcode::CMP: return evalCond(cond, a, b) ? 1 : 0;
      case Opcode::FADD: return asBits(asDouble(a) + asDouble(b));
      case Opcode::FSUB: return asBits(asDouble(a) - asDouble(b));
      case Opcode::FMUL: return asBits(asDouble(a) * asDouble(b));
      case Opcode::FDIV: return asBits(asDouble(a) / asDouble(b));
      default:
        LBP_PANIC("unhandled ALU opcode: ", opcodeName(op));
    }
}

/**
 * Table 2 of the paper: the value a predicate define of kind k writes
 * for guard g and condition c, or -1 for no update. Indexed
 * [kind][g * 2 + c].
 */
inline constexpr std::int8_t kPredWrite[9][4] = {
    {-1, -1, -1, -1}, // NONE
    {0, 0, 0, 1},     // UT
    {0, 0, 1, 0},     // UF
    {-1, -1, -1, 1},  // OT
    {-1, -1, 1, -1},  // OF
    {-1, -1, 0, -1},  // AT
    {-1, -1, -1, 0},  // AF
    {-1, -1, 0, 1},   // CT
    {-1, -1, 1, 0},   // CF
};

} // namespace lbp

#endif // LBP_IR_ALU_OPS_HH
