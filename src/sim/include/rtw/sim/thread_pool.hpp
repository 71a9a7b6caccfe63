#pragma once
/// \file thread_pool.hpp
/// A small fixed-size thread pool.  The formal runtimes (ProcessSystem,
/// Pram) are deliberately single-threaded deterministic simulators; this
/// pool provides *actual* parallelism where determinism of interleaving
/// does not matter (independent tasks, joined results).
///
/// Its one caller is engine::BatchRunner::map, which posts min(count,
/// threads) tasks that claim index chunks from a shared counter and waits
/// for them on a condition variable of its own.  So one mutex-guarded
/// FIFO queue serves: there is no fan-out of thousands of small tasks to
/// spread across per-worker queues, and a task blocked on one worker
/// never strands a queued task, because every idle worker pops from the
/// same queue.  (The serving layer's shards run on dedicated threads of
/// their own; see svc/service.hpp.)
///
/// post() enqueues a task (one SmallFn move); the destructor runs every
/// queued task before it joins the workers.  The queue is a ring that only
/// grows, so once it has held the most tasks ever queued at once, posting
/// allocates nothing (a std::deque allocates a block every few pushes).
///
/// (Historically lived in rtw::par; moved into the sim infrastructure
/// layer when the execution engine was introduced so that rtw_engine ->
/// rtw_parallel -> rtw_engine never becomes a cycle.)

#include <condition_variable>
#include <cstddef>
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
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the task reports its result through its own
  /// captures.  Throws std::runtime_error once shutdown has begun.
  void post(Task task);

  unsigned threads() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

private:
  void worker_loop();

  std::vector<std::thread> threads_;

  std::mutex mutex_;  ///< guards everything below
  std::condition_variable wake_;
  std::vector<Task> tasks_;  ///< ring of queued_ tasks from head_
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  bool stopping_ = false;
};

}  // namespace rtw::sim
