// The per-connection threads of a socket server's accept loop. A thread
// that has finished is joined at the next Spawn, so a long-running server
// holds thread stacks only for its open connections (and any closed since
// the last accept), not one for every connection it ever accepted.
// Spawn and JoinAll are for the accept thread only.
#ifndef SGQ_UTIL_CONNECTION_THREADS_H_
#define SGQ_UTIL_CONNECTION_THREADS_H_

#include <list>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sgq {

class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ~ConnectionThreads() { JoinAll(); }

  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;

  // Joins the threads that have finished, then runs `serve` on a new one.
  template <typename Fn>
  void Spawn(Fn serve) {
    std::vector<std::list<std::thread>::iterator> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished.swap(finished_);
    }
    for (const auto it : finished) {
      it->join();
      threads_.erase(it);
    }
    const auto it = threads_.emplace(threads_.end());
    *it = std::thread([this, it, serve = std::move(serve)]() mutable {
      serve();
      std::lock_guard<std::mutex> lock(mu_);
      finished_.push_back(it);
    });
  }

  // Waits for every thread, finished or not (server teardown).
  void JoinAll() {
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    finished_.clear();
  }

 private:
  std::mutex mu_;
  // Threads whose `serve` returned, not yet joined; guarded by mu_.
  std::vector<std::list<std::thread>::iterator> finished_;
  std::list<std::thread> threads_;
};

}  // namespace sgq

#endif  // SGQ_UTIL_CONNECTION_THREADS_H_
