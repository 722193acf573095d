/**
 * @file
 * Per-op dispatch shared by the decoded executor body and the
 * trace-cache replay loop: computed-goto ("threaded") dispatch through
 * the GCC/Clang labels-as-values extension. A function-static label
 * table is indexed by the handler byte predecode assigns to every
 * MicroOp, so each op costs one indirect jump instead of a switch's
 * bounds check plus jump-table indirection, and the branch predictor
 * gets one indirect target per dispatch site. The library already
 * requires GCC or Clang (__builtin_memcpy in ir/alu_ops.hh), so there
 * is no portable fallback. The engine-differential test pins the
 * handlers against the reference interpreter.
 *
 * Usage (the label order in LBP_DISPATCH_TABLE must match
 * ExecHandler; the handler byte is total over it, so there is no
 * bad-value path):
 *
 *   LBP_DISPATCH_TABLE();            // once per function, any scope
 *   for (...) {
 *       LBP_DISPATCH(m->handler) {
 *           LBP_HANDLER(PRED_DEF) { ...; LBP_NEXT_OP; }
 *           ...
 *           LBP_ALU_HANDLERS
 *       }
 *       LBP_DISPATCH_END;
 *   }
 */

#ifndef LBP_SIM_DISPATCH_HH
#define LBP_SIM_DISPATCH_HH

#include "sim/decoded.hh"

#define LBP_ALU_HANDLER_LABEL_(OP) &&lbp_h_ALU_##OP,
#define LBP_DISPATCH_TABLE()                                                \
    static const void *const lbpHandlerTable                                \
        [static_cast<int>(::lbp::ExecHandler::COUNT)] = {                   \
            &&lbp_h_PRED_DEF, &&lbp_h_LOAD,     &&lbp_h_STORE,              \
            &&lbp_h_MOV,      &&lbp_h_ABS,      &&lbp_h_ITOF,               \
            &&lbp_h_FTOI,     &&lbp_h_SELECT,   &&lbp_h_BR,                 \
            &&lbp_h_JUMP,     &&lbp_h_BR_CLOOP, &&lbp_h_LOOP,               \
            &&lbp_h_CALL,     &&lbp_h_RET,                                  \
            LBP_BINARY_ALU_OPS(LBP_ALU_HANDLER_LABEL_)}

#define LBP_DISPATCH(h) goto *lbpHandlerTable[static_cast<int>(h)];
#define LBP_HANDLER(name) lbp_h_##name:
#define LBP_NEXT_OP goto lbp_h_next
#define LBP_DISPATCH_END                                                    \
    lbp_h_next:;

/**
 * One handler per binary ALU opcode, each running BundleExec::alu for
 * its constant opcode (so the op body is inlined, not re-dispatched).
 * Expects the dispatch loop's BundleExec named bx and MicroOp
 * pointer m.
 */
#define LBP_ALU_HANDLER_(OP)                                                \
    LBP_HANDLER(ALU_##OP)                                                   \
    {                                                                       \
        bx.alu<::lbp::Opcode::OP>(*m);                                      \
        LBP_NEXT_OP;                                                        \
    }
#define LBP_ALU_HANDLERS LBP_BINARY_ALU_OPS(LBP_ALU_HANDLER_)

#endif // LBP_SIM_DISPATCH_HH
