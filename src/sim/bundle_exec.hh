/**
 * @file
 * The decoded simulator's datapath, sim-private: the guard/nullify
 * check, the data-op handler bodies and the bundle commit. Both
 * decoded drivers run their data ops through it — the general path
 * (VliwSim::callFunctionDecoded) and trace replay
 * (VliwSim::replayResident) — so the drivers differ only where the
 * loop buffer differs: where bundles are fetched from and what the
 * control ops (BR, JUMP, BR_CLOOP, LOOP, CALL, RET) do.
 *
 * Bundle semantics are two-phase: every op reads the state the
 * bundle started with. A bundle whose decode proved that no op reads
 * an earlier same-bundle write (DecodedBundle::direct) commits each
 * write in place; any other bundle defers its writes into fixed
 * arrays and commits them at commit(). Capacities are bounded by the
 * issue width, checked at predecode: at most one register or memory
 * write per op, two predicate/slot writes per predicate define.
 *
 * The reference engine (vliw_sim.cc) keeps its own copy of these
 * semantics on purpose: it is the oracle the decoded engine is
 * differentially tested against.
 */

#ifndef LBP_SIM_BUNDLE_EXEC_HH
#define LBP_SIM_BUNDLE_EXEC_HH

#include <cstdint>
#include <vector>

#include "ir/alu_ops.hh"
#include "sim/decoded.hh"
#include "support/logging.hh"

namespace lbp
{

class BundleExec
{
  public:
    BundleExec(std::int64_t *regs, std::uint8_t *preds,
               std::uint8_t *slotPred, std::vector<std::uint8_t> &mem,
               bool slotMode)
        : regs_(regs), preds_(preds), slotPred_(slotPred), mem_(mem),
          slotMode_(slotMode)
    {
    }

    /** Start issuing @p bu. */
    void begin(const DecodedBundle &bu)
    {
        direct_ = bu.direct;
        nRegW_ = nPredW_ = nSlotW_ = nMemW_ = 0;
    }

    /**
     * @p m's guard value this cycle: its slot's standing predicate
     * when it is sensitive in SLOT mode, else its guard predicate,
     * true when unguarded.
     */
    bool guard(const MicroOp &m) const
    {
        if (m.alwaysExec)
            return true;
        if (slotMode_ && m.sensitive)
            return slotPred_[m.slot] != 0;
        return m.guard == kNoPred || preds_[m.guard] != 0;
    }

    /**
     * Does @p m, whose guard is @p g, skip this cycle? A false guard
     * nullifies every op but a predicate define, whose guard is a
     * Table-2 input; a nullified branch still counts as a branch.
     */
    static bool nullified(const MicroOp &m, bool g, SimStats &st)
    {
        if (g || m.handler == ExecHandler::PRED_DEF)
            return false;
        ++st.opsNullified;
        if (m.handler == ExecHandler::BR ||
            m.handler == ExecHandler::JUMP ||
            m.handler == ExecHandler::BR_CLOOP)
            ++st.branches;
        return true;
    }

    std::int64_t read(const XSrc &s) const
    {
        if (s.kind == XSrc::REG)
            return regs_[s.idx];
        if (s.kind == XSrc::IMM)
            return s.imm;
        return preds_[s.idx];
    }

    // ---- Data-op handlers ----

    void predDef(const MicroOp &m, bool g)
    {
        const unsigned gc =
            (g ? 2u : 0u) +
            (evalCond(m.cond, read(m.src[0]), read(m.src[1])) ? 1u : 0u);
        writeDef(kPredWrite[static_cast<unsigned>(m.k0)][gc], m.pdKind0,
                 m.pdIdx0);
        writeDef(kPredWrite[static_cast<unsigned>(m.k1)][gc], m.pdKind1,
                 m.pdIdx1);
    }

    void load(const MicroOp &m)
    {
        const std::int64_t addr = read(m.src[0]) + read(m.src[1]);
        const std::size_t need = m.op == Opcode::LD_B   ? 1
                                 : m.op == Opcode::LD_H ? 2
                                                        : 4;
        std::int64_t v = 0;
        if (addr < 0 ||
            static_cast<std::size_t>(addr) + need > mem_.size()) {
            LBP_ASSERT(m.speculative, "non-speculative load fault @",
                       addr);
        } else {
            std::uint32_t raw = 0;
            for (std::size_t i = 0; i < need; ++i)
                raw |= static_cast<std::uint32_t>(mem_[addr + i])
                       << (8 * i);
            v = m.op == Opcode::LD_B   ? static_cast<std::int8_t>(raw)
                : m.op == Opcode::LD_H ? static_cast<std::int16_t>(raw)
                                       : static_cast<std::int32_t>(raw);
        }
        writeReg(m.dstReg, v);
    }

    void store(const MicroOp &m)
    {
        const std::int64_t addr = read(m.src[0]) + read(m.src[1]);
        const std::int64_t v = read(m.src[2]);
        if (direct_)
            storeBytes(m.op, addr, v);
        else
            memW_[nMemW_++] = {m.op, addr, v};
    }

    void mov(const MicroOp &m) { writeReg(m.dstReg, read(m.src[0])); }

    void abs(const MicroOp &m)
    {
        writeReg(m.dstReg, wrapAbs(read(m.src[0])));
    }

    void itof(const MicroOp &m)
    {
        writeReg(m.dstReg,
                 asBits(static_cast<double>(read(m.src[0]))));
    }

    void ftoi(const MicroOp &m)
    {
        writeReg(m.dstReg, lbp::ftoi(asDouble(read(m.src[0]))));
    }

    void select(const MicroOp &m)
    {
        writeReg(m.dstReg,
                 read(m.src[0]) ? read(m.src[1]) : read(m.src[2]));
    }

    /** The binary ALU op @p OP (the handler's own opcode). */
    template <Opcode OP>
    void alu(const MicroOp &m)
    {
        writeReg(m.dstReg, evalBinaryAlu(OP, m.cond, read(m.src[0]),
                                         read(m.src[1])));
    }

    /** Commit the bundle's deferred writes (none when direct). */
    void commit()
    {
        for (int i = 0; i < nRegW_; ++i)
            regs_[regW_[i].r] = regW_[i].v;
        for (int i = 0; i < nPredW_; ++i)
            preds_[predW_[i].p] = predW_[i].v;
        for (int i = 0; i < nSlotW_; ++i) {
            for (int j = i + 1; j < nSlotW_; ++j) {
                LBP_ASSERT(slotW_[i].s != slotW_[j].s ||
                               slotW_[i].v == slotW_[j].v,
                           "conflicting same-cycle slot-predicate "
                           "writes");
            }
            slotPred_[slotW_[i].s] = slotW_[i].v;
        }
        for (int i = 0; i < nMemW_; ++i)
            storeBytes(memW_[i].op, memW_[i].addr, memW_[i].v);
    }

  private:
    void writeReg(std::int32_t r, std::int64_t v)
    {
        if (direct_)
            regs_[r] = v;
        else
            regW_[nRegW_++] = {r, v};
    }

    /** One Table-2 result @p w (-1 = no update) to a define dst. */
    void writeDef(int w, std::uint8_t dKind, std::int32_t dIdx)
    {
        if (w < 0 || dKind == 0)
            return;
        const auto v = static_cast<std::uint8_t>(w);
        if (dKind == 2) {
            if (direct_)
                slotPred_[dIdx] = v;
            else
                slotW_[nSlotW_++] = {dIdx, v};
        } else {
            if (direct_)
                preds_[dIdx] = v;
            else
                predW_[nPredW_++] = {dIdx, v};
        }
    }

    void storeBytes(Opcode op, std::int64_t addr, std::int64_t v)
    {
        const std::size_t need = op == Opcode::ST_B   ? 1
                                 : op == Opcode::ST_H ? 2
                                                      : 4;
        LBP_ASSERT(addr >= 0 &&
                       static_cast<std::size_t>(addr) + need <=
                           mem_.size(),
                   "store fault @", addr);
        for (std::size_t k = 0; k < need; ++k)
            mem_[addr + k] = static_cast<std::uint8_t>((v >> (8 * k)) &
                                                       0xff);
    }

    struct RegWrite { std::int32_t r; std::int64_t v; };
    struct PredWrite { std::int32_t p; std::uint8_t v; };
    struct SlotWrite { std::int32_t s; std::uint8_t v; };
    struct MemWrite { Opcode op; std::int64_t addr; std::int64_t v; };

    std::int64_t *const regs_;
    std::uint8_t *const preds_;
    std::uint8_t *const slotPred_;
    std::vector<std::uint8_t> &mem_;
    const bool slotMode_;

    bool direct_ = false;
    int nRegW_ = 0, nPredW_ = 0, nSlotW_ = 0, nMemW_ = 0;
    RegWrite regW_[Machine::width] = {};
    PredWrite predW_[2 * Machine::width] = {};
    SlotWrite slotW_[2 * Machine::width] = {};
    MemWrite memW_[Machine::width] = {};
};

} // namespace lbp

#endif // LBP_SIM_BUNDLE_EXEC_HH
