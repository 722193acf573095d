/**
 * @file
 * Profile-guided function inlining. The paper performs selective
 * inlining up to an estimated 50% static code expansion, primarily to
 * enlarge loop regions (loop bodies may not contain calls if they are
 * to be buffered).
 */

#ifndef LBP_TRANSFORM_INLINER_HH
#define LBP_TRANSFORM_INLINER_HH

#include "ir/program.hh"

namespace lbp
{

struct InlineOptions
{
    /** Maximum program growth as a fraction of the original size. */
    double maxExpansion = 0.5;

    /** Never inline callees larger than this many operations. */
    int maxCalleeOps = 400;

    /** Ignore call sites executed fewer times than this. */
    double minCallWeight = 1.0;
};

struct InlineStats
{
    int sitesInlined = 0;
    int opsAdded = 0;
};

/**
 * Inline hot call sites program-wide, hottest first, respecting the
 * expansion budget. Call-site heat is the block weight annotated by
 * profileProgram (ir/decoded_interpreter.hh). Returns statistics.
 */
InlineStats inlineHotCalls(Program &prog, const InlineOptions &opts = {});

/**
 * Inline a specific call site: the call at index @p opIdx of block
 * @p bb in @p caller. Returns false if the site is ineligible
 * (recursive, callee marked noInline).
 */
bool inlineCallSite(Program &prog, FuncId caller, BlockId bb,
                    size_t opIdx);

} // namespace lbp

#endif // LBP_TRANSFORM_INLINER_HH
