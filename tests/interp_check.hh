/**
 * @file
 * Test helper: run a program on both IR interpreters — the
 * tree-walking reference and the decoded interpreter — and require
 * identical results: every ExecResult field, the final memory, and
 * every block's entry count.
 */

#ifndef LBP_TESTS_INTERP_CHECK_HH
#define LBP_TESTS_INTERP_CHECK_HH

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/decoded_interpreter.hh"
#include "ir/interpreter.hh"

namespace lbp
{

/** Block-entry counts observed from the tree-walker. */
class BlockCounter : public ProfileSink
{
  public:
    void onBlock(FuncId f, BlockId b) override { ++counts[{f, b}]; }

    std::uint64_t count(FuncId f, BlockId b) const
    {
        auto it = counts.find({f, b});
        return it == counts.end() ? 0 : it->second;
    }

    std::map<std::pair<FuncId, BlockId>, std::uint64_t> counts;
};

/**
 * Run @p prog with @p args on both interpreters, expect every field
 * to agree (@p what labels failures), and return the reference
 * result.
 */
inline ExecResult
runBothInterpreters(const Program &prog,
                    const std::vector<std::int64_t> &args = {},
                    const std::string &what = "")
{
    Interpreter tree(prog);
    BlockCounter blocks;
    tree.setProfileSink(&blocks);
    const ExecResult ref = tree.run(args);

    DecodedInterpreter dec(prog);
    const ExecResult got = dec.run(args);

    EXPECT_EQ(ref.checksum, got.checksum) << what;
    EXPECT_EQ(ref.returns, got.returns) << what;
    EXPECT_EQ(ref.dynOps, got.dynOps) << what;
    EXPECT_EQ(ref.dynNullified, got.dynNullified) << what;
    EXPECT_EQ(ref.dynBranches, got.dynBranches) << what;
    EXPECT_EQ(ref.dynTaken, got.dynTaken) << what;
    EXPECT_EQ(ref.dynBlocks, got.dynBlocks) << what;
    EXPECT_TRUE(tree.memory() == dec.memory()) << what;
    for (const Function &fn : prog.functions) {
        for (const BasicBlock &bb : fn.blocks) {
            EXPECT_EQ(blocks.count(fn.id, bb.id),
                      dec.blockCount(fn.id, bb.id))
                << what << " block " << fn.name << "/" << bb.name;
        }
    }
    return ref;
}

} // namespace lbp

#endif // LBP_TESTS_INTERP_CHECK_HH
