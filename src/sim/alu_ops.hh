/**
 * @file
 * Value semantics shared by the decoded executor body and the trace
 * replay loop: 16-bit saturation, the int64 <-> double bit casts, and
 * the binary ALU family. Private to src/sim.
 *
 * The reference engine (vliw_sim.cc) and the IR interpreter keep their
 * own copies on purpose: the engine differential compares the fast
 * paths against them, so an error here must not reach the oracles too.
 */

#ifndef LBP_SIM_ALU_OPS_HH
#define LBP_SIM_ALU_OPS_HH

#include <algorithm>
#include <cstdint>

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

/** Result of the two-source ALU op @p op; CMP compares by @p cond. */
inline std::int64_t
evalBinaryAlu(Opcode op, CmpCond cond, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Opcode::ADD: return a + b;
      case Opcode::SUB: return a - b;
      case Opcode::MUL: return a * b;
      case Opcode::DIV:
        LBP_ASSERT(b != 0, "div by zero");
        return a / b;
      case Opcode::REM:
        LBP_ASSERT(b != 0, "rem by zero");
        return a % b;
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
      case Opcode::SATADD: return sat16(a + b);
      case Opcode::SATSUB: return sat16(a - b);
      case Opcode::CMP: return evalCond(cond, a, b) ? 1 : 0;
      case Opcode::FADD: return asBits(asDouble(a) + asDouble(b));
      case Opcode::FSUB: return asBits(asDouble(a) - asDouble(b));
      case Opcode::FMUL: return asBits(asDouble(a) * asDouble(b));
      case Opcode::FDIV: return asBits(asDouble(a) / asDouble(b));
      default:
        LBP_PANIC("unhandled ALU opcode: ", opcodeName(op));
    }
}

} // namespace lbp

#endif // LBP_SIM_ALU_OPS_HH
