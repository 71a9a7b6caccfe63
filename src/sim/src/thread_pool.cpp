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
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stopping, and the queue is drained
    {
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      ++running_;
      lock.unlock();
      task();
    }  // the task's captures are destroyed outside the lock
    lock.lock();
    if (--running_ == 0 && tasks_.empty()) idle_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return running_ == 0 && tasks_.empty(); });
}

}  // namespace rtw::sim
