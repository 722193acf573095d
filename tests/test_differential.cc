/**
 * @file
 * Differential testing: randomly generated structured programs
 * (nested counted loops, diamonds, hammocks, data-dependent while
 * loops, memory traffic, helper calls) are compiled under both
 * optimization levels and simulated under both predication modes at
 * several buffer sizes; every configuration must reproduce the
 * reference interpreter's checksum and return values, and the decoded
 * engine — trace cache forced on and off — must match the reference
 * sim engine on every SimStats field. This is the fuzzing backstop
 * behind the hand-written per-pass tests.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "ir/interpreter.hh"
#include "obs/publish.hh"
#include "sim/vliw_sim.hh"
#include "support/random.hh"
#include "workloads/input_data.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

constexpr int kMemWords = 512;

/** Random structured program generator. */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

    Program generate()
    {
        Program prog;
        prog.name = "fuzz";
        const auto mem = prog.allocData(kMemWords * 4);
        {
            Rng init(rng_.next());
            for (int i = 0; i < kMemWords; ++i) {
                prog.poke32(mem + 4 * i,
                            static_cast<std::int32_t>(
                                init.nextRange(-1000, 1000)));
            }
        }
        prog.checksumBase = mem;
        prog.checksumSize = kMemWords * 4;

        // A small helper function as an inlining target.
        const FuncId helper = prog.newFunction("helper");
        {
            Function &fn = prog.functions[helper];
            const RegId x = fn.newReg();
            fn.params = {x};
            fn.numReturns = 1;
            IRBuilder hb(prog, helper);
            const RegId t = hb.mul(R(x), I(3));
            const RegId u = hb.xor_(R(t), I(0x55));
            const RegId v = hb.and_(R(u), I(0xffff));
            hb.ret({R(v)});
        }

        const FuncId mainF = prog.newFunction("main");
        prog.entryFunc = mainF;
        IRBuilder b(prog, mainF);
        memBase_ = b.iconst(mem);
        pool_ = {b.iconst(1), b.iconst(rng_.nextRange(-20, 20))};
        helper_ = helper;

        emitRegion(b, 2);
        // Make the pool observable.
        const RegId addr = b.iconst(mem);
        for (size_t i = 0; i < pool_.size() && i < 8; ++i) {
            b.storeW(R(addr), I(static_cast<int>(4 * i)),
                     R(pool_[pool_.size() - 1 - i]));
        }
        b.ret({R(pool_.back())});
        return prog;
    }

  private:
    void emitStraightOps(IRBuilder &b, int n)
    {
        for (int i = 0; i < n; ++i) {
            const RegId a = pick();
            const RegId c = pick();
            switch (rng_.nextBelow(8)) {
              case 0:
                pool_.push_back(b.add(R(a), R(c)));
                break;
              case 1:
                pool_.push_back(b.sub(R(a), I(rng_.nextRange(-9, 9))));
                break;
              case 2:
                pool_.push_back(b.mul(R(a), R(c)));
                break;
              case 3: {
                const RegId idx = b.and_(R(a), I(kMemWords - 1));
                const RegId i4 = b.shl(R(idx), I(2));
                pool_.push_back(b.loadW(R(memBase_), R(i4)));
                break;
              }
              case 4: {
                const RegId idx = b.and_(R(a), I(kMemWords - 1));
                const RegId i4 = b.shl(R(idx), I(2));
                const RegId val = b.and_(R(c), I(0xffffff));
                b.storeW(R(memBase_), R(i4), R(val));
                break;
              }
              case 5:
                pool_.push_back(b.satadd(R(a), R(c)));
                break;
              case 6:
                pool_.push_back(b.min(R(a), R(c)));
                break;
              default:
                pool_.push_back(b.xor_(R(a), R(c)));
                break;
            }
            if (pool_.size() > 24)
                pool_.erase(pool_.begin(), pool_.begin() + 8);
        }
    }

    void emitControl(IRBuilder &b, int depth)
    {
        const CmpCond conds[] = {CmpCond::LT, CmpCond::GE,
                                 CmpCond::EQ, CmpCond::NE,
                                 CmpCond::GT};
        const CmpCond c = conds[rng_.nextBelow(5)];
        const RegId x = pick();
        const std::int64_t k = rng_.nextRange(-8, 8);
        if (rng_.chance(0.5)) {
            workloads::diamond(b, c, R(x), I(k),
                               [&] {
                                   emitStraightOps(b, 1 + rng_.nextBelow(3));
                                   if (depth > 0 && rng_.chance(0.4))
                                       emitControl(b, depth - 1);
                               },
                               [&] {
                                   emitStraightOps(b, 1 + rng_.nextBelow(3));
                               });
        } else {
            workloads::ifThen(b, c, R(x), I(k), [&] {
                emitStraightOps(b, 1 + rng_.nextBelow(4));
                if (depth > 0 && rng_.chance(0.3))
                    emitControl(b, depth - 1);
            });
        }
    }

    void emitLoop(IRBuilder &b, int depth)
    {
        const std::int64_t trip = 2 + rng_.nextRange(0, 14);
        b.forLoop(0, trip, 1, [&](RegId i) {
            pool_.push_back(i);
            emitStraightOps(b, 2 + rng_.nextBelow(5));
            if (rng_.chance(0.6))
                emitControl(b, 1);
            if (depth > 0 && rng_.chance(0.4))
                emitLoop(b, depth - 1);
            if (rng_.chance(0.2)) {
                auto r = b.call(helper_, {R(pick())}, 1);
                pool_.push_back(r[0]);
            }
            emitStraightOps(b, 1 + rng_.nextBelow(3));
        });
    }

    void emitRegion(IRBuilder &b, int depth)
    {
        emitStraightOps(b, 2 + rng_.nextBelow(4));
        const int loops = 1 + static_cast<int>(rng_.nextBelow(3));
        for (int i = 0; i < loops; ++i) {
            emitLoop(b, depth);
            emitStraightOps(b, 1 + rng_.nextBelow(3));
        }
    }

    RegId pick() { return pool_[rng_.nextBelow(pool_.size())]; }

    Rng rng_;
    std::vector<RegId> pool_;
    RegId memBase_ = 0;
    FuncId helper_ = kNoFunc;
};

class DifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DifferentialTest, AllConfigsMatchInterpreter)
{
    ProgramGen gen(0xfeed0000ull + GetParam());
    Program prog = gen.generate();

    Interpreter interp(prog);
    const auto golden = interp.run();

    for (int cfg = 0; cfg < 3; ++cfg) {
        CompileOptions opts;
        opts.level = cfg == 0 ? OptLevel::Traditional
                              : OptLevel::Aggressive;
        if (cfg == 2) {
            // Exercise the future-work extensions under fuzz too.
            opts.rotatingRegisters = true;
            opts.predQueueDepth = 2;
        }
        CompileResult cr;
        // compileProgram itself re-verifies the checksum per stage.
        ASSERT_NO_THROW(compileProgram(prog, opts, cr))
            << "seed " << GetParam();
        EXPECT_EQ(cr.goldenChecksum, golden.checksum);
        for (int size : {24, 256}) {
            reallocateBuffers(cr, size);
            const std::string what =
                "seed " + std::to_string(GetParam()) + " cfg " +
                std::to_string(cfg) + " size " + std::to_string(size);
            SimConfig sc;
            sc.bufferOps = size;
            sc.predMode = PredMode::SLOT;
            sc.engine = SimEngine::REFERENCE;
            const SimStats ref = VliwSim(cr.code, sc).run();
            EXPECT_EQ(ref.checksum, golden.checksum) << what;
            EXPECT_EQ(ref.returns, golden.returns) << what;

            // The decoded engine with the trace cache forced on and
            // off: every field, not just checksum and returns.
            sc.engine = SimEngine::DECODED;
            for (TraceCacheMode mode :
                 {TraceCacheMode::On, TraceCacheMode::Off}) {
                sc.traceCache = mode;
                const SimStats dec = VliwSim(cr.code, sc).run();
                const std::string diff = obs::diffSimStats(
                    ref, dec, "reference",
                    mode == TraceCacheMode::On ? "cache-on"
                                               : "cache-off");
                EXPECT_TRUE(diff.empty()) << what << "\n" << diff;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialTest,
                         ::testing::Range(0, 25));

} // namespace
} // namespace lbp
