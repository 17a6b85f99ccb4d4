#include "util/thread_pool.h"

#include <exception>

namespace extnc {

// One run_batch call, on its caller's stack. Every field but fn and count
// is guarded by the pool's mutex_.
struct ThreadPool::Batch {
  Batch(const std::function<void(std::size_t)>& f, std::size_t n)
      : fn(&f), count(n) {}

  const std::function<void(std::size_t)>* fn;
  std::size_t count;
  std::size_t claimed = 0;
  std::size_t finished = 0;
  std::exception_ptr error;  // first exception of this batch
  std::condition_variable done;
  Batch* next = nullptr;  // in pending_ while claimed < count
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_batch(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  Batch batch(fn, count);
  std::unique_lock lock(mutex_);
  if (!workers_.empty()) {
    Batch** tail = &pending_;
    while (*tail != nullptr) tail = &(*tail)->next;
    *tail = &batch;
    const std::size_t helpers = std::min(count - 1, workers_.size());
    for (std::size_t i = 0; i < helpers; ++i) work_available_.notify_one();
  }
  while (batch.claimed < batch.count) run_one(batch, lock);
  batch.done.wait(lock, [&batch] { return batch.finished == batch.count; });
  lock.unlock();
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::run_one(Batch& batch, std::unique_lock<std::mutex>& lock) {
  const std::size_t index = batch.claimed++;
  if (batch.claimed == batch.count && !workers_.empty()) {
    // Fully claimed: unlink it, so no worker looks at it again and it can
    // leave its caller's stack once the claimed indices finish.
    Batch** link = &pending_;
    while (*link != &batch) link = &(*link)->next;
    *link = batch.next;
  }
  lock.unlock();
  std::exception_ptr error;
  try {
    (*batch.fn)(index);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !batch.error) batch.error = std::move(error);
  // Notified under the lock: the caller cannot return (and destroy batch)
  // until this thread releases mutex_ and no longer touches it.
  if (++batch.finished == batch.count) batch.done.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_available_.wait(
        lock, [this] { return stopping_ || pending_ != nullptr; });
    if (pending_ == nullptr) return;  // stopping_, and no batch is waiting
    run_one(*pending_, lock);
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace extnc
