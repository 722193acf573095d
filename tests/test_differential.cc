/**
 * @file
 * Differential testing: randomly generated structured programs
 * (nested counted loops, diamonds, hammocks, data-dependent while
 * loops, memory traffic, helper calls) are compiled under both
 * optimization levels and simulated under both predication modes at
 * several buffer sizes; every configuration must reproduce the
 * reference interpreter's checksum and return values, and the decoded
 * engine — trace cache forced on and off — must match the reference
 * sim engine on every SimStats field. The decoded IR interpreter must
 * match the tree-walker on every ExecResult field and block count, on
 * the generated input and on each compiled program's final IR. This
 * is the fuzzing backstop behind the hand-written per-pass tests.
 *
 * The accountant differential (SizeSweep, AccountantSweep) pins
 * "simulate once, account many": a buffer-size sweep over one shared
 * DecodedImage executes once per PredMode and accounts every other
 * point from the recorded activation stream. Each accounted point
 * must equal a full run on a fresh image — every SimStats and
 * LoopStats field, the cycle stack, TraceCacheStats and the loop
 * buffer — with the trace cache on and off and at several replay
 * thresholds, and the size-independent fields must agree across
 * sizes.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "interp_check.hh"
#include "ir/builder.hh"
#include "obs/publish.hh"
#include "sim/decoded.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "support/random.hh"
#include "workloads/input_data.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

constexpr int kMemWords = 512;

/**
 * Random structured program generator. With @p rich set, loop bodies
 * also get while loops with data-dependent trip counts, loops with an
 * early exit (side exits out of the loop body), and calls to a
 * helper that runs a loop of its own (a callee loop recording over
 * the caller's image in the middle of an activation).
 */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed, bool rich = false)
        : rng_(seed), rich_(rich)
    {
    }

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

        if (rich_) {
            // A helper with a loop of its own.
            loopHelper_ = prog.newFunction("loop_helper");
            Function &fn = prog.functions[loopHelper_];
            const RegId x = fn.newReg();
            fn.params = {x};
            fn.numReturns = 1;
            IRBuilder hb(prog, loopHelper_);
            const RegId acc = hb.mov(R(x));
            hb.forLoop(0, 3 + rng_.nextRange(0, 6), 1, [&](RegId i) {
                hb.addTo(acc, R(acc), R(i));
                hb.binTo(Opcode::XOR, acc, R(acc), I(0x33));
            });
            const RegId v = hb.and_(R(acc), I(0xffff));
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
            if (rich_)
                emitRichControl(b);
            emitStraightOps(b, 1 + rng_.nextBelow(3));
        });
    }

    void emitRichControl(IRBuilder &b)
    {
        switch (rng_.nextBelow(4)) {
          case 0: {
            auto r = b.call(loopHelper_, {R(pick())}, 1);
            pool_.push_back(r[0]);
            break;
          }
          case 1: {
            // While loop: the step depends on loaded data.
            const RegId n = b.mov(I(8 + rng_.nextRange(0, 24)));
            const BlockId head = b.makeBlock();
            b.fallTo(head);
            b.at(head);
            emitStraightOps(b, 1 + rng_.nextBelow(3));
            const RegId idx = b.and_(R(pick()), I(kMemWords - 1));
            const RegId i4 = b.shl(R(idx), I(2));
            const RegId t = b.loadW(R(memBase_), R(i4));
            const RegId step = b.and_(R(t), I(3));
            b.subTo(n, R(n), R(step));
            b.subTo(n, R(n), I(1));
            b.br(CmpCond::GT, R(n), I(0), head);
            const BlockId after = b.makeBlock();
            b.fallTo(after);
            b.at(after);
            pool_.push_back(n);
            break;
          }
          case 2: {
            // Counted loop with an early exit.
            const RegId i = b.mov(I(0));
            const std::int64_t trip = 4 + rng_.nextRange(0, 12);
            const std::int64_t k = rng_.nextRange(200, 990);
            const BlockId head = b.makeBlock();
            const BlockId after = b.makeBlock();
            b.fallTo(head);
            b.at(head);
            emitStraightOps(b, 1 + rng_.nextBelow(3));
            const RegId idx = b.and_(R(pick()), I(kMemWords - 1));
            const RegId i4 = b.shl(R(idx), I(2));
            const RegId t = b.loadW(R(memBase_), R(i4));
            b.br(CmpCond::GT, R(t), I(k), after);
            const BlockId cont = b.makeBlock();
            b.fallTo(cont);
            b.at(cont);
            b.addTo(i, R(i), I(1));
            b.br(CmpCond::LT, R(i), I(trip), head);
            b.fallTo(after);
            b.at(after);
            pool_.push_back(i);
            break;
          }
          default:
            break;
        }
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
    bool rich_ = false;
    std::vector<RegId> pool_;
    RegId memBase_ = 0;
    FuncId helper_ = kNoFunc;
    FuncId loopHelper_ = kNoFunc;
};

class DifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DifferentialTest, AllConfigsMatchInterpreter)
{
    ProgramGen gen(0xfeed0000ull + GetParam());
    Program prog = gen.generate();

    const std::string seed = "seed " + std::to_string(GetParam());
    const auto golden = runBothInterpreters(prog, {}, seed + " input");

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
        runBothInterpreters(cr.ir, {},
                            seed + " cfg " + std::to_string(cfg) +
                                " out.ir");
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

// ---- Accountant differential: simulate once, account many ----------

/**
 * An accounted point against a full run at the same configuration:
 * every SimStats field (LoopStats included), every cycle-stack row
 * and its closure, TraceCacheStats and the loop buffer's state.
 */
void
expectSamePoint(const VliwSim &full, const SimStats &f,
                const VliwSim &acc, const SimStats &a,
                const std::string &what)
{
    const std::string diff =
        obs::diffSimStats(f, a, "full", "accounted");
    EXPECT_TRUE(diff.empty()) << what << "\n" << diff;
    EXPECT_TRUE(f == a) << what;
    EXPECT_TRUE(full.cycleStack() == acc.cycleStack())
        << what << ": cycle stacks differ";
    EXPECT_EQ(acc.cycleStack().totalCycles(), a.cycles)
        << what << ": accounted cycle stack is not closed";
    const TraceCacheStats *tf = full.traceCacheStats();
    const TraceCacheStats *ta = acc.traceCacheStats();
    ASSERT_EQ(tf == nullptr, ta == nullptr) << what;
    if (tf) {
        EXPECT_TRUE(*tf == *ta) << what << ": TraceCacheStats differ";
        EXPECT_EQ(tf->replays, ta->replays) << what;
        EXPECT_EQ(tf->bailouts, ta->bailouts) << what;
        EXPECT_EQ(tf->predReplay.sideExits, ta->predReplay.sideExits)
            << what;
    }
    EXPECT_TRUE(full.buffer() == acc.buffer())
        << what << ": loop buffers differ (recordings "
        << full.buffer().recordings() << " vs "
        << acc.buffer().recordings() << ", evictions "
        << full.buffer().evictions() << " vs "
        << acc.buffer().evictions() << ", table hits "
        << full.buffer().tableHits() << " vs "
        << acc.buffer().tableHits() << ")";
}

/** The fields the optimisation rests on: equal at every size. */
void
expectSizeIndependentEqual(const SimStats &x, const SimStats &y,
                           const std::string &what)
{
    EXPECT_EQ(x.bundles, y.bundles) << what;
    EXPECT_EQ(x.opsFetched, y.opsFetched) << what;
    EXPECT_EQ(x.opsNullified, y.opsNullified) << what;
    EXPECT_EQ(x.opsSensitive, y.opsSensitive) << what;
    EXPECT_EQ(x.branches, y.branches) << what;
    EXPECT_EQ(x.branchesTaken, y.branchesTaken) << what;
    EXPECT_EQ(x.checksum, y.checksum) << what;
    EXPECT_EQ(x.returns, y.returns) << what;
    ASSERT_EQ(x.loops.size(), y.loops.size()) << what;
    for (std::size_t i = 0; i < x.loops.size(); ++i) {
        EXPECT_EQ(x.loops[i].activations, y.loops[i].activations)
            << what << " loop " << i;
        EXPECT_EQ(x.loops[i].iterations, y.loops[i].iterations)
            << what << " loop " << i;
    }
}

/**
 * Sweep @p sizes through one shared image in @p mode, every point
 * with the trace cache off and on at replay thresholds 0, 1 and 4,
 * each compared with a full run on a fresh image.
 */
void
sweepMatchesFullRuns(CompileResult &cr, PredMode mode,
                     const std::vector<int> &sizes,
                     const std::string &what)
{
    struct CacheCfg
    {
        TraceCacheMode mode;
        std::int64_t minIters;
    };
    const CacheCfg cacheCfgs[] = {{TraceCacheMode::Off, 4},
                                  {TraceCacheMode::On, 0},
                                  {TraceCacheMode::On, 1},
                                  {TraceCacheMode::On, 4}};
    DecodedImage shared = buildDecodedImage(cr.code);
    SimStats first;
    bool haveFirst = false;
    for (int size : sizes) {
        reallocateBuffers(cr, size);
        rebindBufferAddresses(shared, cr.code);
        for (const CacheCfg &cc : cacheCfgs) {
            SimConfig sc;
            sc.bufferOps = size;
            sc.predMode = mode;
            sc.traceCache = cc.mode;
            sc.replayMinIters = cc.minIters;
            const std::string at =
                what + " size " + std::to_string(size) + " cache " +
                (cc.mode == TraceCacheMode::On ? "on" : "off") +
                " minIters " + std::to_string(cc.minIters);
            VliwSim acc(cr.code, sc, &shared);
            const SimStats a = acc.run();
            const DecodedImage fresh = buildDecodedImage(cr.code);
            VliwSim full(cr.code, sc, &fresh);
            const SimStats f = full.run();
            EXPECT_FALSE(full.accounted()) << at;
            // Only the sweep's first run executes.
            EXPECT_EQ(acc.accounted(), haveFirst) << at;
            expectSamePoint(full, f, acc, a, at);
            if (!haveFirst) {
                first = a;
                haveFirst = true;
            }
            expectSizeIndependentEqual(first, a, at);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

class SizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SizeSweep, AccountantMatchesFullRuns)
{
    ProgramGen gen(0xfeed0000ull + GetParam(), true);
    const Program prog = gen.generate();
    // Sizes from well below one loop image (evictions, unbuffered
    // loops) to everything resident.
    const std::vector<int> sizes{4, 8, 12, 16, 24, 40, 64, 256};
    struct Cfg
    {
        OptLevel level;
        bool slotLowering;
        PredMode mode;
    };
    for (const Cfg c : {Cfg{OptLevel::Traditional, true, PredMode::SLOT},
                        Cfg{OptLevel::Traditional, true,
                            PredMode::REGISTER},
                        Cfg{OptLevel::Aggressive, true, PredMode::SLOT},
                        Cfg{OptLevel::Aggressive, false,
                            PredMode::REGISTER}}) {
        CompileOptions opts;
        opts.level = c.level;
        opts.slotLowering = c.slotLowering;
        // Keep calls inside loop bodies (callee loops evict the
        // caller's image mid-activation) at the Traditional level.
        opts.doInline = c.level == OptLevel::Aggressive;
        CompileResult cr;
        ASSERT_NO_THROW(compileProgram(prog, opts, cr))
            << "seed " << GetParam();
        sweepMatchesFullRuns(
            cr, c.mode, sizes,
            "seed " + std::to_string(GetParam()) +
                (c.level == OptLevel::Aggressive ? " aggr" : " trad") +
                (c.mode == PredMode::SLOT ? " slot" : " reg"));
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SizeSweep, ::testing::Range(0, 12));

/**
 * The Figure-7 sizes plus perfbench's buffer_curve sizes for seed
 * 9001 (one size per equal-width stratum of [16, 2048], 96 strata).
 */
std::vector<int>
sweepSizes()
{
    std::vector<int> sizes{16, 32, 64, 128, 256, 512, 1024, 2048};
    Rng rng(9001);
    constexpr int kMin = 16, kMax = 2048, kStrata = 96;
    const int span = kMax - kMin + 1;
    for (int i = 0; i < kStrata; ++i) {
        const int lo = kMin + i * span / kStrata;
        const int hi = kMin + (i + 1) * span / kStrata - 1;
        sizes.push_back(static_cast<int>(rng.nextRange(lo, hi)));
    }
    return sizes;
}

class AccountantSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AccountantSweep, EverySweepSizeMatchesFullRuns)
{
    const Program prog = workloads::buildWorkload(GetParam());
    for (const PredMode mode : {PredMode::SLOT, PredMode::REGISTER}) {
        CompileOptions opts;
        opts.level = OptLevel::Aggressive;
        opts.slotLowering = mode == PredMode::SLOT;
        CompileResult cr;
        compileProgram(prog, opts, cr);
        sweepMatchesFullRuns(cr, mode, sweepSizes(),
                             GetParam() +
                                 (mode == PredMode::SLOT ? " slot"
                                                         : " reg"));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AccountantSweep,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &w : workloads::allWorkloads())
            names.push_back(w.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace lbp
