#pragma once
/// \file thread_pool.hpp
/// A small fixed-size thread pool shared by the engine's BatchRunner and
/// the benchmark harnesses (batch membership checks, parameter sweeps).
/// The formal runtimes (ProcessSystem, Pram) are deliberately
/// single-threaded deterministic simulators; this pool provides *actual*
/// parallelism where determinism of interleaving does not matter
/// (independent tasks, joined results).
///
/// Per C++ Core Guidelines CP.4: think in tasks.  submit() returns a
/// future; post() is the fire-and-forget fast path (no future, no
/// packaged_task, no shared_ptr -- one SmallFn move); wait_idle() drains
/// the queue.
///
/// Internally each worker owns its own mutex-guarded deque; producers
/// distribute round-robin and idle workers steal from their siblings'
/// queues, so a fan-out of thousands of small tasks never serializes on a
/// single queue lock.
///
/// (Historically lived in rtw::par; moved into the sim infrastructure
/// layer when the execution engine was introduced so that rtw_engine ->
/// rtw_parallel -> rtw_engine never becomes a cycle.)

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rtw/sim/small_fn.hpp"

namespace rtw::sim {

class ThreadPool {
public:
  /// Move-only task cell; captures up to 48 bytes run allocation-free.
  using Task = SmallFn<void(), 48>;

  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Fire-and-forget fast path: enqueues `task` with no future attached.
  /// Use when the task reports its result through its own captures (the
  /// BatchRunner writes through per-index result slots, for example).
  void post(Task task);

  /// Enqueues a task; returns a future for its result.  Built on post():
  /// the packaged_task wrapper is only paid by callers that want a future.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    post([packaged] { (*packaged)(); });
    return future;
  }

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

  unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

private:
  /// One worker's queue.  unique_ptr keeps addresses stable in the vector.
  struct Worker {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(unsigned self);
  /// Pops from own queue front, else steals from a sibling's back.
  bool try_pop(unsigned self, Task& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex sleep_mutex_;          ///< guards the two wait predicates
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::atomic<std::size_t> queued_{0};    ///< tasks sitting in queues
  std::atomic<std::size_t> in_flight_{0}; ///< queued + currently running
  std::atomic<unsigned> round_robin_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace rtw::sim
