/**
 * @file
 * Unit tests for the support layer: deterministic RNG, histograms,
 * logging helpers, thread pool, dense id sets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "analysis/liveness.hh"
#include "support/dense_set.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace lbp
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Histogram, BasicAccumulation)
{
    Histogram h;
    h.add(1, 2.0);
    h.add(3, 1.0);
    h.add(1, 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), (1 * 3.0 + 3 * 1.0) / 4.0);
    EXPECT_EQ(h.maxValue(), 3);
}

TEST(Histogram, Cdf)
{
    Histogram h;
    h.add(1, 1);
    h.add(2, 1);
    h.add(4, 2);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(1), 0.25);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(2), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(3), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(4), 1.0);
    auto rows = h.cdf();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows.back().first, 4);
    EXPECT_DOUBLE_EQ(rows.back().second, 1.0);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_DOUBLE_EQ(h.total(), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0);
    EXPECT_EQ(h.maxValue(), 0);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(5), 0);
}

TEST(Stats, Formatting)
{
    EXPECT_EQ(pct(0.5), "50.0%");
    EXPECT_EQ(pct(0.123, 2), "12.30%");
    EXPECT_EQ(fixed(1.5, 1), "1.5");
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({3.0, 3.0, 3.0}), 3.0, 1e-12);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(LBP_FATAL("user error ", 42), std::runtime_error);
}

TEST(ThreadPool, RunsAllSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, DefaultsToAtLeastOneThread)
{
    ThreadPool pool;
    EXPECT_GE(pool.threadCount(), 1);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): destruction must still run everything.
    }
    EXPECT_EQ(count.load(), 50);
}

// ------------------------------------------------------ dense id sets

std::vector<RegId>
members(const RegSet &s)
{
    return {s.begin(), s.end()};
}

TEST(DenseIdSet, InsertEraseCountPastTheWordCount)
{
    RegSet s(10); // one word
    EXPECT_EQ(s.count(5), 0u);
    EXPECT_EQ(s.count(1000), 0u); // far past the words: absent
    EXPECT_EQ(s.erase(1000), 0u); // and erasing it is a no-op
    EXPECT_TRUE(s.insert(5));
    EXPECT_FALSE(s.insert(5));
    EXPECT_TRUE(s.insert(200)); // grows to a fourth word
    EXPECT_EQ(s.count(5), 1u);
    EXPECT_EQ(s.count(200), 1u);
    EXPECT_EQ(s.count(199), 0u);
    EXPECT_EQ(s.count(201), 0u);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.erase(200), 1u);
    EXPECT_EQ(s.erase(200), 0u);
    EXPECT_EQ(s.count(200), 0u);
    EXPECT_EQ(s.size(), 1u);
    s.erase(5);
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.begin(), s.end());
}

TEST(DenseIdSet, IteratesAscendingAcrossWordBoundaries)
{
    RegSet s;
    EXPECT_EQ(s.begin(), s.end());
    const std::vector<RegId> ids{0, 1, 63, 64, 65, 127, 128, 191, 320, 383};
    // Insert out of order: iteration order must not depend on it.
    for (auto it = ids.rbegin(); it != ids.rend(); ++it)
        s.insert(*it);
    EXPECT_EQ(members(s), ids);
    EXPECT_EQ(s.size(), ids.size());
    // Words left empty in the middle and at the end are skipped.
    s.erase(127);
    s.erase(128);
    s.erase(383);
    EXPECT_EQ(members(s),
              (std::vector<RegId>{0, 1, 63, 64, 65, 191, 320}));
}

TEST(DenseIdSet, EqualityIgnoresWordLength)
{
    RegSet a(1), b(1000);
    EXPECT_EQ(a, b);
    a.insert(3);
    EXPECT_NE(a, b);
    b.insert(3);
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, a);
    b.insert(700);
    EXPECT_NE(a, b);
    EXPECT_NE(b, a);
    b.erase(700); // b keeps its trailing (now zero) words
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, a);
}

TEST(DenseIdSet, UnionAndDifferenceAcrossLengths)
{
    RegSet a, b;
    a.insert(2);
    a.insert(130);
    b.insert(130);
    b.insert(500);
    a.insertAll(b);
    EXPECT_EQ(members(a), (std::vector<RegId>{2, 130, 500}));
    RegSet c;
    c.insert(2);
    c.insert(900); // longer than a: the extra words remove nothing
    a.eraseAll(c);
    EXPECT_EQ(members(a), (std::vector<RegId>{130, 500}));
    RegSet d;
    d.insert(1);
    d.eraseAll(a); // shorter than a
    EXPECT_EQ(members(d), (std::vector<RegId>{1}));
    a.clear();
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a, RegSet());
}

TEST(DenseIdSet, MatchesStdSetOnRandomOperations)
{
    Rng rng(77);
    PredSet s;
    std::set<PredId> ref;
    for (int i = 0; i < 5000; ++i) {
        const auto id = static_cast<PredId>(rng.nextBelow(300));
        switch (rng.nextBelow(3)) {
          case 0:
            EXPECT_EQ(s.insert(id), ref.insert(id).second);
            break;
          case 1:
            EXPECT_EQ(s.erase(id), ref.erase(id));
            break;
          default:
            EXPECT_EQ(s.count(id), ref.count(id));
        }
    }
    EXPECT_EQ(s.size(), ref.size());
    EXPECT_EQ(std::vector<PredId>(s.begin(), s.end()),
              std::vector<PredId>(ref.begin(), ref.end()));
}

} // namespace
} // namespace lbp
