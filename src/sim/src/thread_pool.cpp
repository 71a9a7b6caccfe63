#include "rtw/sim/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace rtw::sim {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::post(Task task) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: post after shutdown");
    if (queued_ == tasks_.size()) {
      // Grow the ring, oldest task first; it never shrinks.
      std::vector<Task> bigger(std::max<std::size_t>(8, 2 * tasks_.size()));
      for (std::size_t i = 0; i < queued_; ++i)
        bigger[i] = std::move(tasks_[(head_ + i) % tasks_.size()]);
      tasks_.swap(bigger);
      head_ = 0;
    }
    tasks_[(head_ + queued_) % tasks_.size()] = std::move(task);
    ++queued_;
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || queued_ > 0; });
    if (queued_ == 0) return;  // stopping, and the queue is drained
    {
      Task task = std::move(tasks_[head_]);
      head_ = (head_ + 1) % tasks_.size();
      --queued_;
      lock.unlock();
      task();
    }  // the task's captures are destroyed outside the lock
    lock.lock();
  }
}

}  // namespace rtw::sim
