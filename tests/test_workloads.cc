/**
 * @file
 * Workload-construction tests: every Table-1 benchmark builds, passes
 * the verifier, runs deterministically, and exhibits the structural
 * property it was designed to carry (diamonds for if-conversion,
 * collapse shapes, variable-trip nests, ...).
 */

#include <gtest/gtest.h>

#include "analysis/loop_info.hh"
#include "ir/interpreter.hh"
#include "ir/verifier.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace lbp
{
namespace
{

TEST(Workloads, RegistryComplete)
{
    const auto all = workloads::allWorkloads();
    ASSERT_EQ(all.size(), 11u); // Table 1
    EXPECT_EQ(all.front().name, "adpcm_enc");
    EXPECT_EQ(all.back().name, "pgp_dec");
}

TEST(Workloads, UnknownNameThrows)
{
    EXPECT_THROW(workloads::buildWorkload("nope"), std::runtime_error);
}

TEST(Workloads, IsWorkloadNamesWhatBuildWorkloadAccepts)
{
    for (const auto &w : workloads::allWorkloads())
        EXPECT_TRUE(workloads::isWorkload(w.name)) << w.name;
    EXPECT_TRUE(workloads::isWorkload("post_filter_only"));
    EXPECT_NO_THROW(workloads::buildWorkload("post_filter_only"));
    EXPECT_FALSE(workloads::isWorkload("nope"));
    EXPECT_FALSE(workloads::isWorkload(""));
}

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, BuildsVerifiesRuns)
{
    Program prog = workloads::buildWorkload(GetParam());
    EXPECT_EQ(prog.name, GetParam());
    verifyOrDie(prog);
    ASSERT_GT(prog.checksumSize, 0);

    Interpreter interp(prog);
    const auto r1 = interp.run();
    EXPECT_GT(r1.dynOps, 10'000u) << "workload too small to measure";

    // Determinism: rebuilding + rerunning yields the same checksum.
    Program prog2 = workloads::buildWorkload(GetParam());
    Interpreter interp2(prog2);
    const auto r2 = interp2.run();
    EXPECT_EQ(r1.checksum, r2.checksum);
    EXPECT_EQ(r1.dynOps, r2.dynOps);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, WorkloadTest,
    ::testing::Values("adpcm_enc", "adpcm_dec", "g724_enc", "g724_dec",
                      "jpeg_enc", "jpeg_dec", "mpeg2_enc", "mpeg2_dec",
                      "mpg123", "pgp_enc", "pgp_dec"));

TEST(Workloads, AdpcmHasControlFlowLoops)
{
    Program prog = workloads::buildAdpcmEnc();
    // The coder's loop must be multi-block (diamonds inside).
    const FuncId coder = prog.findFunction("adpcm_coder");
    ASSERT_NE(coder, kNoFunc);
    LoopInfo li(prog.functions[coder]);
    ASSERT_GE(li.loops().size(), 1u);
    bool multi = false;
    for (const auto &l : li.loops())
        multi |= l.blocks.size() > 2;
    EXPECT_TRUE(multi);
}

TEST(Workloads, PostFilterHasTwelveInnerLoops)
{
    Program prog = workloads::buildPostFilterOnly();
    const FuncId pf = prog.findFunction("post_filter");
    ASSERT_NE(pf, kNoFunc);
    LoopInfo li(prog.functions[pf]);
    int inner = 0;
    for (const auto &l : li.loops())
        inner += l.parent >= 0 || l.depth > 1;
    // Twelve inner loops under the subframe loop (C and J carry
    // diamonds so their bodies span several blocks each).
    int topLevel = 0;
    for (const auto &l : li.loops())
        topLevel += l.depth == 1;
    EXPECT_EQ(topLevel, 1);
    EXPECT_GE(static_cast<int>(li.loops().size()), 13);
}

TEST(Workloads, MpegAddBlockIsCollapseShape)
{
    Program prog = workloads::buildMpeg2Dec();
    const FuncId f = prog.findFunction("add_block");
    ASSERT_NE(f, kNoFunc);
    LoopInfo li(prog.functions[f]);
    ASSERT_EQ(li.loops().size(), 2u);
    const int innerIdx = li.loops()[0].depth == 2 ? 0 : 1;
    const Loop &inner = li.loops()[innerIdx];
    EXPECT_TRUE(inner.induction.valid);
    EXPECT_EQ(inner.induction.constTrip, 8);
}

TEST(Workloads, JpegEncoderHasVariableTripLoop)
{
    Program prog = workloads::buildJpegEnc();
    const FuncId f = prog.findFunction("rle_encode");
    ASSERT_NE(f, kNoFunc);
    LoopInfo li(prog.functions[f]);
    bool variableTrip = false;
    for (const auto &l : li.loops()) {
        if (!l.induction.valid || l.induction.constTrip < 0)
            variableTrip = true;
    }
    EXPECT_TRUE(variableTrip);
}

TEST(Workloads, Mpg123HasManyDistinctKernels)
{
    Program prog = workloads::buildMpg123();
    int windows = 0;
    for (const auto &fn : prog.functions)
        windows += fn.name.rfind("synth_win_", 0) == 0;
    EXPECT_GE(windows, 16);
}

TEST(Workloads, PgpRoundTripsThroughCipher)
{
    // Decoding the encoder's output with the same keystream must
    // recover the plaintext (CFB is an XOR stream).
    Program enc = workloads::buildPgpEnc();
    Interpreter ie(enc);
    const auto re = ie.run();
    EXPECT_NE(re.checksum, 0u);
    Program dec = workloads::buildPgpDec();
    Interpreter id(dec);
    const auto rd = id.run();
    EXPECT_NE(rd.checksum, re.checksum);
}

} // namespace
} // namespace lbp
