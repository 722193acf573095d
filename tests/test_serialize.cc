/**
 * @file
 * Textual serialization tests: write/parse round-trips over
 * hand-written programs, every Table-1 workload (structural and
 * semantic equality), transformed/predicated code, and parser error
 * handling.
 */

#include <gtest/gtest.h>

#include "ir/interpreter.hh"
#include "ir/serialize.hh"
#include "ir/verifier.hh"
#include "workloads/registry.hh"
#include "core/compiler.hh"

namespace lbp
{
namespace
{

TEST(Serialize, HandWrittenKernelParses)
{
    const std::string text = R"(
program tiny
memory 64
checksum 0 8
entry main

func main params() rets 1
  block entry entry
    mov r1 = 0
    mov r2 = 5
    falls loop
  block loop
    add r1 = r1, r2
    add r2 = r2, -1
    br.gt r2, 0 -> loop
    falls done
  block done
    mov r3 = 0
    st.w r3, 0, r1
    ret r1
)";
    Program prog = parseText(text);
    verifyOrDie(prog);
    Interpreter interp(prog);
    const auto r = interp.run();
    EXPECT_EQ(r.returns[0], 5 + 4 + 3 + 2 + 1);
}

TEST(Serialize, PredicatedOpsRoundTrip)
{
    const std::string text = R"(
program pred
memory 16
entry main
func main params() rets 1
  block entry entry
    mov r1 = 7
    pred_def.lt p1:ut, p2:uf = r1, 10
    (p1) add r2 = r1, 100 spec
    (p2) add r2 = r1, 200
    ret r2
)";
    Program prog = parseText(text);
    Interpreter interp(prog);
    EXPECT_EQ(interp.run().returns[0], 107);

    // Round-trip: parse(write(parse(text))) behaves identically.
    Program prog2 = parseText(writeText(prog));
    Interpreter interp2(prog2);
    EXPECT_EQ(interp2.run().returns[0], 107);
    // The speculative flag survived.
    bool sawSpec = false;
    for (const auto &bb : prog2.functions[0].blocks)
        for (const auto &op : bb.ops)
            sawSpec |= op.speculative;
    EXPECT_TRUE(sawSpec);
}

TEST(Serialize, BufferOpsRoundTrip)
{
    const std::string text = R"(
program buf
memory 16
entry main
func main params() rets 1
  block entry entry
    mov r1 = 0
    rec_cloop 6 -> body buf 32 n 3
    falls body
  block body
    add r1 = r1, 2
    br.cloop -> body
    falls done
  block done
    ret r1
)";
    Program prog = parseText(text);
    Interpreter interp(prog);
    EXPECT_EQ(interp.run().returns[0], 12);
    Program prog2 = parseText(writeText(prog));
    // bufAddr/numOps survive the round trip.
    bool found = false;
    for (const auto &op :
         prog2.functions[0].blocks[prog2.functions[0].entry].ops) {
        if (op.op == Opcode::REC_CLOOP) {
            EXPECT_EQ(op.bufAddr, 32);
            EXPECT_EQ(op.numOps, 3);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

class WorkloadRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRoundTrip, TextPreservesSemantics)
{
    Program prog = workloads::buildWorkload(GetParam());
    Interpreter ref(prog);
    const auto golden = ref.run();

    const std::string text = writeText(prog);
    Program back = parseText(text);
    verifyOrDie(back);
    Interpreter interp(back);
    const auto r = interp.run();
    EXPECT_EQ(r.checksum, golden.checksum);
    EXPECT_EQ(r.returns, golden.returns);
    EXPECT_EQ(r.dynOps, golden.dynOps);

    // Canonical: writing the reparsed program reproduces the text.
    EXPECT_EQ(writeText(back), text);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, WorkloadRoundTrip,
    ::testing::Values("adpcm_enc", "g724_dec", "jpeg_enc", "mpeg2_dec",
                      "mpg123", "pgp_enc"));

TEST(Serialize, TransformedProgramRoundTrips)
{
    // The aggressive pipeline's output (hyperblocks, predicates,
    // rec/cloop ops, side exits) must serialize too.
    Program prog = workloads::buildWorkload("adpcm_enc");
    CompileOptions opts;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    const std::string text = writeText(cr.ir);
    Program back = parseText(text);
    VerifyOptions vo;
    vo.allowInternalBranches = true;
    verifyOrDie(back, vo);
    Interpreter interp(back);
    EXPECT_EQ(interp.run().checksum, cr.goldenChecksum);
}

TEST(Serialize, ErrorsCarryLineNumbers)
{
    EXPECT_THROW(parseText("program x\nmemory nope\n"),
                 std::runtime_error);
    EXPECT_THROW(parseText("program x\nbogus_keyword y\n"),
                 std::runtime_error);
    // Wrong operand arity parses (the verifier owns that check):
    Program lax = parseText("program x\nmemory 8\nfunc f params(r1) "
                            "rets 0\n  block b entry\n    add r1 = "
                            "r2\n    ret\n");
    EXPECT_FALSE(verify(lax.functions[0]).empty());
}

TEST(Serialize, NegativeMemorySizeRejectedWithLine)
{
    try {
        parseText("program x\nmemory -8\n");
        FAIL() << "negative memory size parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("negative memory size"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Serialize, ChecksumOutsideMemoryFailsVerification)
{
    auto withRegion = [](const std::string &region) {
        return parseText("program x\nmemory 8\nchecksum " + region +
                         "\nentry main\nfunc main params() rets 0\n"
                         "  block entry entry\n    ret\n");
    };
    // These parse (the verifier owns the check) but must not verify.
    for (const char *bad : {"-4 8", "4 8", "0 -1"}) {
        const auto errs = verify(withRegion(bad));
        ASSERT_EQ(errs.size(), 1u) << bad;
        EXPECT_NE(errs[0].find("checksum region"), std::string::npos)
            << errs[0];
    }
    // A region that fits, and an empty one (hashes nothing).
    for (const char *good : {"0 8", "9 0"})
        EXPECT_TRUE(verify(withRegion(good)).empty()) << good;
}

TEST(Serialize, UnknownTargetRejected)
{
    EXPECT_THROW(parseText(R"(
program x
memory 8
entry main
func main params() rets 0
  block entry entry
    br.eq 0, 0 -> nowhere
    falls entry
)"),
                 std::runtime_error);
}

} // namespace
} // namespace lbp
