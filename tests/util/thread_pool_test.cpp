#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace extnc {
namespace {

TEST(ThreadPool, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, DefaultPoolIsOneHardwareSizedPool) {
  ThreadPool& pool = default_pool();
  EXPECT_EQ(&pool, &default_pool());
  EXPECT_EQ(pool.num_threads(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::atomic<int> hits{0};
  pool.run_batch(16, [&hits](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, RunBatchCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.run_batch(64, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunBatchZeroIsNoop) {
  ThreadPool pool(2);
  pool.run_batch(0, [](std::size_t) { FAIL() << "must not be called"; });
}

// num_threads() counts the caller: a pool of one starts no worker, and
// every index runs on the calling thread.
TEST(ThreadPool, SingleThreadPoolRunsEveryIndexOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::thread::id> ran_on(16);
  pool.run_batch(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// run_batch joins exactly its own indices, so a caller returns even while
// another caller's batch is still running.
TEST(ThreadPool, RunBatchConcurrentCallersAreIsolated) {
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> slow_done{0};
  std::thread slow_caller([&] {
    pool.run_batch(2, [&](std::size_t) {
      while (!release.load()) std::this_thread::yield();
      slow_done.fetch_add(1);
    });
  });
  // The fast batch must complete while the slow batch is still blocked.
  std::atomic<int> fast_done{0};
  pool.run_batch(8, [&fast_done](std::size_t) { fast_done.fetch_add(1); });
  EXPECT_EQ(fast_done.load(), 8);
  EXPECT_EQ(slow_done.load(), 0);
  release.store(true);
  slow_caller.join();
  EXPECT_EQ(slow_done.load(), 2);
}

// Several threads share one pool with random batch sizes. Each caller must
// see each of its own indices exactly once, and only its own exceptions.
TEST(ThreadPool, ConcurrentCallersSeeExactlyTheirOwnIndices) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> callers;
  std::vector<int> failures(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t count = rng.next_byte() % 48;
        const bool throws = count > 0 && round % 7 == 0;
        const std::size_t thrower = throws ? rng.next_byte() % count : 0;
        const std::string message = "caller " + std::to_string(c);
        std::vector<std::atomic<int>> hits(count);
        try {
          pool.run_batch(count, [&](std::size_t i) {
            hits[i].fetch_add(1);
            if (throws && i == thrower) throw std::runtime_error(message);
          });
          if (throws) ++failures[c];
        } catch (const std::runtime_error& e) {
          if (!throws || e.what() != message) ++failures[c];
        }
        for (const auto& h : hits) {
          if (h.load() != 1) ++failures[c];
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(failures[c], 0) << "caller " << c;
  }
}

TEST(ThreadPool, RunBatchReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.run_batch(10, [&counter](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

// A run_batch issued from inside a running index of the same pool. With a
// shared task queue this deadlocks once every worker blocks in an inner
// wait, so the wait is bounded here: a hang fails the test instead of
// stalling the suite.
TEST(ThreadPool, NestedRunBatchOnOnePoolCompletes) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  auto rounds = std::async(std::launch::async, [&] {
    for (int round = 0; round < 50; ++round) {
      pool.run_batch(kOuter, [&](std::size_t i) {
        pool.run_batch(kInner, [&, i](std::size_t j) {
          hits[i * kInner + j].fetch_add(1);
        });
      });
    }
  });
  if (rounds.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // The stuck threads cannot be joined, so no destructor may run.
    std::fprintf(stderr, "nested run_batch did not complete within 60 s\n");
    std::_Exit(1);
  }
  rounds.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
}

// --- exception propagation -------------------------------------------------

TEST(ThreadPool, RunBatchPropagatesTaskException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_batch(16,
                     [&ran](std::size_t i) {
                       ran.fetch_add(1);
                       if (i == 5) throw std::runtime_error("task 5 failed");
                     }),
      std::runtime_error);
  // Every index of the batch still ran (the batch drains; it is not
  // cancelled mid-flight).
  EXPECT_EQ(ran.load(), 16);
  // The pool stays usable and the error does not leak into later batches.
  std::atomic<int> after{0};
  pool.run_batch(4, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPool, RunBatchPreservesExceptionMessage) {
  ThreadPool pool(2);
  try {
    pool.run_batch(1, [](std::size_t) {
      throw std::runtime_error("exact message");
    });
    FAIL() << "run_batch must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "exact message");
  }
}

// The caller always claims at least the first index itself; an exception
// from an index it ran reaches it only after every index has run.
TEST(ThreadPool, ExceptionFromCallerRunIndexReachesCallerAfterAllIndices) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  try {
    pool.run_batch(32, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        ran.fetch_add(1);
        throw std::runtime_error("caller index failed");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran.fetch_add(1);
    });
    FAIL() << "run_batch must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller index failed");
  }
  EXPECT_EQ(ran.load(), 32);
}

// --- chunk_bounds ----------------------------------------------------------

TEST(ThreadPool, ChunkBoundsPartitionExactly) {
  for (const std::size_t count : {0u, 1u, 2u, 3u, 7u, 64u, 101u, 1000u}) {
    for (const std::size_t parts : {1u, 2u, 3u, 4u, 8u, 200u}) {
      std::size_t next = 0;
      for (std::size_t part = 0; part < parts; ++part) {
        const auto [begin, end] = chunk_bounds(count, parts, part);
        EXPECT_EQ(begin, next) << count << "/" << parts << " part " << part;
        EXPECT_LE(begin, end);
        // Sizes differ by at most one, larger chunks first.
        EXPECT_TRUE(end - begin == count / parts ||
                    end - begin == count / parts + 1);
        if (part > 0) {
          const auto [prev_begin, prev_end] =
              chunk_bounds(count, parts, part - 1);
          EXPECT_GE(prev_end - prev_begin, end - begin);
        }
        next = end;
      }
      EXPECT_EQ(next, count) << count << "/" << parts;
    }
  }
}

}  // namespace
}  // namespace extnc
