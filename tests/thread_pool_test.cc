#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace sgq {
namespace {

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitRunsEverything) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNothingPendingReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  pool.Submit([] {});
  pool.Wait();
  pool.Wait();  // idempotent
}

TEST(ThreadPoolTest, PoolIsReusableAcrossRounds) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<size_t> sum{0};
    for (size_t i = 0; i < 100; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
    pool.Wait();
    EXPECT_EQ(sum.load(), 100u * 99u / 2u) << "round " << round;
  }
}

TEST(ThreadPoolTest, DefaultChunkBounds) {
  EXPECT_GE(ThreadPool::DefaultChunk(0, 4), 1u);
  EXPECT_GE(ThreadPool::DefaultChunk(1, 4), 1u);
  EXPECT_LE(ThreadPool::DefaultChunk(1u << 30, 2), 64u);
  // Mid-size databases get more than one graph per hand-out.
  EXPECT_GT(ThreadPool::DefaultChunk(10000, 4), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must still run everything.
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace sgq
