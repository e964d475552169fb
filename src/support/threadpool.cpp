#include "support/threadpool.h"

#include <algorithm>
#include <utility>

namespace fed {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  MutexLock call(call_mutex_);
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    job_ = {&fn, n};
    next_.store(0, std::memory_order_relaxed);
    drained_ = false;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    // Workers claim only while attached and detach only once no index is
    // left, so once one has detached and none is attached, every index
    // has run; clearing job_ keeps any late worker from attaching.
    MutexLock lock(mutex_);
    while (!drained_ || attached_ != 0) done_cv_.wait(mutex_);
    job_ = {};
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_index(const Job& job, std::size_t i) {
  try {
    (*job.fn)(i);
  } catch (...) {
    MutexLock lock(mutex_);
    if (!error_ || i < error_index_) {
      error_ = std::current_exception();
      error_index_ = i;
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // generation of the last job this worker joined
  for (;;) {
    Job job;
    {
      MutexLock lock(mutex_);
      while (!stop_ && (job_.fn == nullptr || generation_ == seen)) {
        work_cv_.wait(mutex_);
      }
      if (stop_) return;
      seen = generation_;
      ++attached_;
      job = job_;
    }
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < job.n; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      run_index(job, i);
    }
    MutexLock lock(mutex_);
    drained_ = true;
    if (--attached_ == 0) done_cv_.notify_one();
  }
}

}  // namespace fed
