// Fixed-size fork-join thread pool.
//
// The CPU coding backend follows the paper's two partitioning schemes
// (per-block partitioned work and full-block-per-thread work), the
// multi-segment decoder gives each segment to one thread, and the simulated
// GPU's parallel engine runs one task per texture-cache unit. All of them
// reduce to "run fn(i) for i in [0, count) and wait", which is the one thing
// this pool does: run_batch.
//
// The calling thread works too. It claims and runs indices of its own batch
// next to the workers, then waits only for that batch, so num_threads()
// counts the caller: a pool of n starts n - 1 workers, and ThreadPool(1)
// starts none and runs every index on the calling thread.
//
// Batches from concurrent callers queue in arrival order; workers take
// indices from the oldest batch. A caller never waits on another caller's
// work, and run_batch may be called from inside a running index (nesting):
// every wait is for indices another thread is already running, so nested
// and concurrent batches always complete.
//
// Exceptions are per batch: an index that throws does not stop the others,
// and after every index of the batch has run, run_batch rethrows the first
// exception one of them raised to that batch's caller only.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace extnc {

class ThreadPool {
 public:
  // num_threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Threads that compute a batch, the calling thread included.
  std::size_t num_threads() const { return workers_.size() + 1; }

  // Run fn(i) for every i in [0, count), on the workers and the calling
  // thread, and return once all have finished. fn is invoked concurrently
  // and must handle its own data partitioning. Rethrows the first exception
  // any fn(i) raised, after every index has run.
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  struct Batch;

  void worker_loop();
  // Claim the next index of `batch` and run it; `lock` holds mutex_ on
  // entry and on return, and is released while fn runs.
  void run_one(Batch& batch, std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable work_available_;
  // Batches that still have unclaimed indices, oldest first; each lives on
  // its caller's stack. Guarded by mutex_, as is stopping_.
  Batch* pending_ = nullptr;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// The process-wide pool for library paths that take a pool argument with a
// default (net::encode_file, net::decode_file): hardware_concurrency()
// threads, the caller counted, built on first use. Sharing one pool keeps a
// process that calls them from many places at no more than that many
// computing threads.
ThreadPool& default_pool();

// The half-open range [begin, end) of chunk `part` when [0, count) is split
// into `parts` contiguous chunks in index order, sizes differing by at most
// one. With more parts than items the trailing chunks are empty.
inline std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t count,
                                                        std::size_t parts,
                                                        std::size_t part) {
  const std::size_t base = count / parts;
  const std::size_t extra = count % parts;
  const std::size_t begin = part * base + std::min(part, extra);
  return {begin, begin + base + (part < extra ? 1 : 0)};
}

}  // namespace extnc
