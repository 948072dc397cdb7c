#include "core/kernighan_lin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace chiron {
namespace {

// Cost functional: imbalance of "weights" between the two sets, where the
// weight of function id f is f itself. The optimum splits the ids evenly.
TimeMs imbalance(const std::vector<FunctionId>& a,
                 const std::vector<FunctionId>& b) {
  double wa = 0.0, wb = 0.0;
  for (FunctionId f : a) wa += f;
  for (FunctionId f : b) wb += f;
  return std::abs(wa - wb);
}

TEST(KernighanLinTest, PreservesElements) {
  std::vector<FunctionId> a{1, 2, 3, 4};
  std::vector<FunctionId> b{10, 11, 12, 13};
  const KlResult result = kernighan_lin(a, b, imbalance);
  std::multiset<FunctionId> before(a.begin(), a.end());
  before.insert(b.begin(), b.end());
  std::multiset<FunctionId> after(result.a.begin(), result.a.end());
  after.insert(result.b.begin(), result.b.end());
  EXPECT_EQ(before, after);
  EXPECT_EQ(result.a.size(), a.size());
  EXPECT_EQ(result.b.size(), b.size());
}

TEST(KernighanLinTest, NeverIncreasesLatency) {
  std::vector<FunctionId> a{1, 2, 3, 20};
  std::vector<FunctionId> b{4, 5, 6, 7};
  const TimeMs before = imbalance(a, b);
  const KlResult result = kernighan_lin(a, b, imbalance);
  EXPECT_LE(result.latency, before + 1e-9);
  EXPECT_DOUBLE_EQ(result.latency, imbalance(result.a, result.b));
}

TEST(KernighanLinTest, FixesObviousImbalance) {
  // a holds all the heavy ids; swapping balances the sets.
  std::vector<FunctionId> a{100, 90, 80};
  std::vector<FunctionId> b{1, 2, 3};
  const KlResult result = kernighan_lin(a, b, imbalance);
  EXPECT_LT(result.latency, imbalance(a, b) * 0.5);
  EXPECT_GT(result.swaps_applied, 0u);
}

TEST(KernighanLinTest, AlreadyOptimalAppliesNoSwaps) {
  std::vector<FunctionId> a{1, 4};
  std::vector<FunctionId> b{2, 3};
  const KlResult result = kernighan_lin(a, b, imbalance);
  EXPECT_EQ(result.swaps_applied, 0u);
  EXPECT_EQ(result.a, a);
  EXPECT_EQ(result.b, b);
}

TEST(KernighanLinTest, HandlesEmptySides) {
  std::vector<FunctionId> a;
  std::vector<FunctionId> b{1, 2};
  const KlResult result = kernighan_lin(a, b, imbalance);
  EXPECT_TRUE(result.a.empty());
  EXPECT_EQ(result.b.size(), 2u);
  EXPECT_EQ(result.swaps_applied, 0u);
}

TEST(KernighanLinTest, SingleElementSides) {
  std::vector<FunctionId> a{10};
  std::vector<FunctionId> b{2};
  const KlResult result = kernighan_lin(a, b, imbalance);
  // Swapping 10 and 2 does not change |10-2|; no improvement possible.
  EXPECT_DOUBLE_EQ(result.latency, 8.0);
}

TEST(KernighanLinTest, ReportsEvaluationCount) {
  std::vector<FunctionId> a{1, 2, 3};
  std::vector<FunctionId> b{4, 5, 6};
  const KlResult result = kernighan_lin(a, b, imbalance);
  // 1 initial + 3 rounds x 9 candidate evals (minus locked) at most.
  EXPECT_GE(result.evaluations, 1u + 9u);
  EXPECT_LE(result.evaluations, 1u + 9u + 4u + 1u + 1u);
}

// Property: KL over random instances never worsens the cost and always
// preserves the element multiset.
class KlRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(KlRandomProperty, ImprovesOrKeepsCost) {
  Rng rng(GetParam());
  std::vector<FunctionId> a, b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(static_cast<FunctionId>(rng.below(100)));
    b.push_back(static_cast<FunctionId>(rng.below(100)));
  }
  const TimeMs before = imbalance(a, b);
  const KlResult result = kernighan_lin(a, b, imbalance);
  EXPECT_LE(result.latency, before + 1e-9);
  std::multiset<FunctionId> m_before(a.begin(), a.end());
  m_before.insert(b.begin(), b.end());
  std::multiset<FunctionId> m_after(result.a.begin(), result.a.end());
  m_after.insert(result.b.begin(), result.b.end());
  EXPECT_EQ(m_before, m_after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlRandomProperty, ::testing::Range(1, 17));

std::uint64_t bits(TimeMs t) { return std::bit_cast<std::uint64_t>(t); }

// Lanes take cells only while the caller is still inside a round, so
// each evaluation is padded to about a microsecond of work: with a
// nanosecond eval the caller would finish most rounds on its own.
PairLatencyEval slowed(PairLatencyEval eval) {
  return [eval](const std::vector<FunctionId>& x,
                const std::vector<FunctionId>& y) {
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
    return eval(x, y);
  };
}

// Pool parity: lanes only change who evaluates a round's cells, never
// which swap wins, so every field matches the sequential pass. Sides of 16
// make the early rounds (256, 225, ... cells) fan out and the late ones
// stay inline.
void expect_pool_parity(const std::vector<FunctionId>& a,
                        const std::vector<FunctionId>& b,
                        const PairLatencyEval& fast_eval) {
  ASSERT_GE(a.size() * b.size(), kKlParallelMinCells);
  const PairLatencyEval eval = slowed(fast_eval);
  ThreadPool pool(4);
  const KlResult seq = kernighan_lin(a, b, eval);
  const KlResult par = kernighan_lin(a, b, eval, &pool);
  EXPECT_EQ(par.a, seq.a);
  EXPECT_EQ(par.b, seq.b);
  EXPECT_EQ(bits(par.latency), bits(seq.latency));
  EXPECT_EQ(par.swaps_applied, seq.swaps_applied);
  EXPECT_EQ(par.evaluations, seq.evaluations);
}

std::pair<std::vector<FunctionId>, std::vector<FunctionId>> random_sides(
    int seed, std::size_t size) {
  Rng rng(seed);
  std::vector<FunctionId> a, b;
  for (std::size_t i = 0; i < size; ++i) {
    a.push_back(static_cast<FunctionId>(rng.below(100)));
    b.push_back(static_cast<FunctionId>(rng.below(100)));
  }
  return {a, b};
}

class KernighanLinPoolParity : public ::testing::TestWithParam<int> {};

TEST_P(KernighanLinPoolParity, PoolMatchesSequential) {
  const auto [a, b] = random_sides(GetParam(), 16);
  expect_pool_parity(a, b, imbalance);
}

TEST_P(KernighanLinPoolParity, TiesPickTheFirstCellInRowMajorOrder) {
  // Coarse buckets: most candidates of a round share one latency.
  const auto [a, b] = random_sides(GetParam(), 16);
  expect_pool_parity(a, b, [](const std::vector<FunctionId>& x,
                              const std::vector<FunctionId>& y) {
    return std::floor(imbalance(x, y) / 64.0);
  });
}

TEST_P(KernighanLinPoolParity, NanCandidatesNeverWin) {
  const auto [a, b] = random_sides(GetParam(), 16);
  expect_pool_parity(a, b, [](const std::vector<FunctionId>& x,
                              const std::vector<FunctionId>& y) {
    return (x.front() + y.back()) % 3 == 0
               ? std::numeric_limits<TimeMs>::quiet_NaN()
               : imbalance(x, y);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernighanLinPoolParity,
                         ::testing::Range(1, 17));

// A fanned-out round really runs on more than one thread: the caller's
// first candidate evaluation waits until a pool lane has entered eval too.
TEST(KernighanLinTest, PoolLanesShareARound) {
  const auto [a, b] = random_sides(7, 16);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::size_t calls = 0;
  const PairLatencyEval eval = [&](const std::vector<FunctionId>& x,
                                   const std::vector<FunctionId>& y) {
    std::unique_lock<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    // Call 1 is the initial configuration, before any fan-out.
    if (++calls > 1) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (threads.size() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        lock.lock();
      }
    }
    return imbalance(x, y);
  };
  ThreadPool pool(4);
  const KlResult par = kernighan_lin(a, b, eval, &pool);
  EXPECT_GE(threads.size(), 2u);
  const KlResult seq = kernighan_lin(a, b, imbalance);
  EXPECT_EQ(par.a, seq.a);
  EXPECT_EQ(par.b, seq.b);
  EXPECT_EQ(par.evaluations, seq.evaluations);
}

// Called from a pool worker, the pass runs inline on that worker (the
// nesting rule) and still returns the sequential result.
TEST(KernighanLinTest, PoolIsIgnoredOnAWorkerThread) {
  const auto [a, b] = random_sides(3, 16);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const PairLatencyEval eval = slowed([&](const std::vector<FunctionId>& x,
                                          const std::vector<FunctionId>& y) {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    return imbalance(x, y);
  });
  ThreadPool pool(2);
  const KlResult nested =
      pool.submit([&] { return kernighan_lin(a, b, eval, &pool); }).get();
  EXPECT_EQ(threads.size(), 1u);
  const KlResult seq = kernighan_lin(a, b, imbalance);
  EXPECT_EQ(nested.a, seq.a);
  EXPECT_EQ(nested.b, seq.b);
  EXPECT_EQ(nested.evaluations, seq.evaluations);
}

}  // namespace
}  // namespace chiron
