// Fixed-size thread pool used to run the selected devices of a federated
// round in parallel. The simulation stays deterministic because every
// client draws from its own (seed, round, device)-keyed RNG stream; the
// pool only changes wall-clock time, never results.
//
// There is no task queue: parallel_for publishes one job, workers claim
// its indices in order off one atomic counter, and the last worker to
// leave the job wakes the caller.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace fed {

class ThreadPool {
 public:
  // threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // If some fn(i) throw, every index still runs once and the exception of
  // the lowest throwing index is rethrown. Concurrent callers run one
  // after another; calling it from inside fn deadlocks.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      FED_EXCLUDES(call_mutex_, mutex_);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;  // null: none
    std::size_t n = 0;
  };

  void worker_loop() FED_EXCLUDES(mutex_);
  void run_index(const Job& job, std::size_t i) FED_EXCLUDES(mutex_);

  // Workers attach to a published job under mutex_, then claim indices
  // off next_ without it.
  Mutex call_mutex_;  // one parallel_for at a time
  Mutex mutex_;
  CondVar work_cv_;  // a job was published, or the pool is stopping
  CondVar done_cv_;  // the job's last attached worker left
  Job job_ FED_GUARDED_BY(mutex_);
  std::uint64_t generation_ FED_GUARDED_BY(mutex_) = 0;  // jobs published
  std::size_t attached_ FED_GUARDED_BY(mutex_) = 0;
  bool drained_ FED_GUARDED_BY(mutex_) = false;  // a worker found no index
  std::size_t error_index_ FED_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ FED_GUARDED_BY(mutex_);
  bool stop_ FED_GUARDED_BY(mutex_) = false;
  std::atomic<std::size_t> next_{0};  // the job's next unclaimed index
  std::vector<std::thread> workers_;  // last: they use every member above
};

// Runs fn(i) for i in [0, n): on `pool`, or on the caller in index order
// when there is no pool or fewer than two indices.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool == nullptr || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  } else {
    pool->parallel_for(n, fn);
  }
}

}  // namespace fed
