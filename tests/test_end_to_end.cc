/**
 * @file
 * The system-level property: every Table-1 workload, compiled under
 * every configuration (Traditional/Aggressive x register/slot
 * predication x several buffer sizes), reproduces the interpreter's
 * golden checksum on the VLIW simulator, and the headline orderings
 * of the paper hold (aggressive buffers more, runs faster; buffer
 * issue is monotone in buffer size). The decoded IR interpreter
 * matches the tree-walker on every workload's input and compiled IR.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/compiler.hh"
#include "interp_check.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

class EndToEnd : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EndToEnd, AllConfigsReproduceGolden)
{
    Program prog = workloads::buildWorkload(GetParam());
    runBothInterpreters(prog, {}, GetParam() + " input");

    // Slot lowering and REGISTER-mode simulation are incompatible by
    // design (slot-routed defines bypass the predicate register
    // file), so each predication micro-architecture gets a matching
    // compilation.
    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        for (PredMode mode : {PredMode::REGISTER, PredMode::SLOT}) {
            CompileOptions opts;
            opts.level = lvl;
            opts.slotLowering = mode == PredMode::SLOT;
            CompileResult cr;
            compileProgram(prog, opts, cr);
            if (mode == PredMode::SLOT)
                runBothInterpreters(cr.ir, {}, GetParam() + " out.ir");
            for (int size : {32, 256, 2048}) {
                reallocateBuffers(cr, size);
                SimConfig sc;
                sc.bufferOps = size;
                sc.predMode = mode;
                VliwSim sim(cr.code, sc);
                const auto st = sim.run();
                EXPECT_EQ(st.checksum, cr.goldenChecksum)
                    << GetParam() << " level="
                    << (lvl == OptLevel::Aggressive ? "aggr" : "trad")
                    << " size=" << size << " mode="
                    << (mode == PredMode::SLOT ? "slot" : "reg");
            }
        }
    }
}

TEST_P(EndToEnd, AggressiveBuffersAtLeastAsMuch)
{
    Program prog = workloads::buildWorkload(GetParam());
    CompileOptions tr;
    tr.level = OptLevel::Traditional;
    CompileResult a;
    compileProgram(prog, tr, a);
    CompileOptions ag;
    ag.level = OptLevel::Aggressive;
    CompileResult b;
    compileProgram(prog, ag, b);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.predMode = PredMode::SLOT;
    VliwSim simA(a.code, sc), simB(b.code, sc);
    const auto sa = simA.run();
    const auto sb = simB.run();
    EXPECT_GE(sb.bufferFraction() + 0.02, sa.bufferFraction());
    // The transformations trade fetched operations for cycles; allow
    // modest per-benchmark regressions (the paper's mpeg2enc/jpegenc
    // show the same effect) but nothing pathological.
    EXPECT_LE(sb.cycles, sa.cycles + sa.cycles / 4);
}

TEST_P(EndToEnd, BufferIssueMonotoneInSize)
{
    Program prog = workloads::buildWorkload(GetParam());
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    double last = -1;
    for (int size : {16, 64, 256, 1024, 2048}) {
        reallocateBuffers(cr, size);
        SimConfig sc;
        sc.bufferOps = size;
        sc.predMode = PredMode::SLOT;
        VliwSim sim(cr.code, sc);
        const auto st = sim.run();
        EXPECT_GE(st.bufferFraction() + 0.01, last)
            << GetParam() << " at size " << size;
        last = st.bufferFraction();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, EndToEnd,
    ::testing::Values("adpcm_enc", "adpcm_dec", "g724_enc", "g724_dec",
                      "jpeg_enc", "jpeg_dec", "mpeg2_enc", "mpeg2_dec",
                      "mpg123", "pgp_enc", "pgp_dec"));

TEST(EndToEndHeadline, AggregateShapesMatchPaper)
{
    // The four headline relations at a 256-op buffer, excluding
    // jpeg_enc and mpeg2_enc like the paper does:
    //  - transformed buffer issue averages high (paper 89%);
    //  - traditional averages low (paper 38.7%);
    //  - transformed is faster on average (paper 1.81x);
    //  - adpcm transformed exceeds 99%.
    double sumT = 0, sumA = 0, speedProd = 1;
    int n = 0;
    for (const auto &w : workloads::allWorkloads()) {
        if (w.name == "jpeg_enc" || w.name == "mpeg2_enc")
            continue;
        Program prog = workloads::buildWorkload(w.name);
        CompileOptions tr;
        tr.level = OptLevel::Traditional;
        CompileResult a;
        compileProgram(prog, tr, a);
        CompileOptions ag;
        ag.level = OptLevel::Aggressive;
        CompileResult b;
        compileProgram(prog, ag, b);
        SimConfig sc;
        sc.bufferOps = 256;
        sc.predMode = PredMode::SLOT;
        VliwSim simA(a.code, sc), simB(b.code, sc);
        const auto sa = simA.run();
        const auto sb = simB.run();
        sumT += sa.bufferFraction();
        sumA += sb.bufferFraction();
        speedProd *= static_cast<double>(sa.cycles) / sb.cycles;
        ++n;

        if (w.name == "adpcm_enc" || w.name == "adpcm_dec") {
            EXPECT_GT(sb.bufferFraction(), 0.99);
        }
        if (w.name == "g724_enc" || w.name == "g724_dec") {
            EXPECT_GT(sb.bufferFraction(), 0.90);
        }
    }
    const double avgT = sumT / n;
    const double avgA = sumA / n;
    EXPECT_LT(avgT, 0.55);  // paper: 38.7%
    EXPECT_GT(avgA, 0.80);  // paper: 89.0%
    EXPECT_GT(avgA, avgT * 1.5);
    const double geoSpeed = std::pow(speedProd, 1.0 / n);
    EXPECT_GT(geoSpeed, 1.3); // paper: 1.81
}

} // namespace
} // namespace lbp
