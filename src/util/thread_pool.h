// A persistent worker pool for the query-processing hot loop.
//
// The parallel vcFV engine used to spawn and join a fresh std::thread set on
// every Query() call; at the paper's per-query costs (milliseconds) the spawn
// overhead is a measurable constant factor. A ThreadPool is created once,
// lives as long as its owner (an engine, a bench driver), and serves any
// number of Submit/Wait rounds.
//
// Concurrency contract: one client drives the pool at a time (Submit/Wait
// are not reentrant from multiple client threads). Workers only ever execute
// tasks; they never call back into the pool.
#ifndef SGQ_UTIL_THREAD_POOL_H_
#define SGQ_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sgq {

class ThreadPool {
 public:
  // `num_threads == 0` means std::thread::hardware_concurrency() (minimum 1).
  explicit ThreadPool(uint32_t num_threads = 0);

  // Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  // Enqueues a task for any worker.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.
  void Wait();

  // For loops that hand out `chunk` consecutive indices of [0, n) per
  // atomic fetch_add: a chunk size that targets ~8 hand-outs per executor,
  // small enough to balance skewed per-item costs, large enough to keep the
  // shared counter cold. Always >= 1, at most 64. Pass the executor count
  // (num_threads() + 1 when the calling thread works too).
  static size_t DefaultChunk(size_t n, uint32_t num_threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or stop
  std::condition_variable idle_cv_;   // signals Wait(): everything finished
  std::deque<std::function<void()>> queue_;
  uint64_t in_flight_ = 0;  // queued + currently running tasks
  bool stop_ = false;
};

}  // namespace sgq

#endif  // SGQ_UTIL_THREAD_POOL_H_
