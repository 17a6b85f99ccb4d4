// The parallel block execution engine: engine selection, serial-vs-parallel
// bit-equivalence on synthetic kernels exercising every accounting path,
// texture-unit affinity, error propagation, and the profiler's
// ticket-ordered timeline under concurrent recording.
#include "simgpu/exec_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simgpu/device_spec.h"
#include "simgpu/executor.h"
#include "simgpu/fault_injector.h"
#include "simgpu/profiler.h"
#include "simgpu/trace_export.h"
#include "util/aligned_buffer.h"
#include "util/metrics_registry.h"

namespace extnc::simgpu {
namespace {

TEST(ExecEngine, ParseAcceptsCanonicalNames) {
  EXPECT_EQ(parse_engine("serial"), ExecEngine::kSerial);
  EXPECT_EQ(parse_engine("parallel"), ExecEngine::kParallel);
  EXPECT_EQ(parse_engine("auto"), ExecEngine::kAuto);
}

TEST(ExecEngine, ParseRejectsEverythingElse) {
  EXPECT_FALSE(parse_engine("").has_value());
  EXPECT_FALSE(parse_engine("Serial").has_value());
  EXPECT_FALSE(parse_engine("threads").has_value());
  EXPECT_FALSE(parse_engine("parallel ").has_value());
}

TEST(ExecEngine, NamesRoundTrip) {
  for (ExecEngine e :
       {ExecEngine::kAuto, ExecEngine::kSerial, ExecEngine::kParallel}) {
    EXPECT_EQ(parse_engine(engine_name(e)), e);
  }
}

TEST(ExecEngine, DefaultEngineIsSettable) {
  const ExecEngine saved = default_engine();
  set_default_engine(ExecEngine::kSerial);
  EXPECT_EQ(default_engine(), ExecEngine::kSerial);
  set_default_engine(ExecEngine::kParallel);
  EXPECT_EQ(default_engine(), ExecEngine::kParallel);
  set_default_engine(saved);
}

TEST(ExecEngine, PoolHasAtLeastOneWorker) {
  EXPECT_GE(engine_pool().num_threads(), 1u);
}

// Set or clear one environment variable for a scope; restores on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// The process defaults latch these at first use, so the honored contract is
// tested through the re-reading env readers.
TEST(ExecEngine, EngineFromEnvHonorsVariable) {
  { ScopedEnv env("EXTNC_SIMGPU_ENGINE", "serial");
    EXPECT_EQ(engine_from_env(), ExecEngine::kSerial); }
  { ScopedEnv env("EXTNC_SIMGPU_ENGINE", "parallel");
    EXPECT_EQ(engine_from_env(), ExecEngine::kParallel); }
  { ScopedEnv env("EXTNC_SIMGPU_ENGINE", "auto");
    EXPECT_EQ(engine_from_env(), ExecEngine::kAuto); }
  { ScopedEnv env("EXTNC_SIMGPU_ENGINE", "bogus");
    EXPECT_EQ(engine_from_env(), ExecEngine::kAuto); }
  { ScopedEnv env("EXTNC_SIMGPU_ENGINE", nullptr);
    EXPECT_EQ(engine_from_env(), ExecEngine::kAuto); }
}

TEST(ExecEngine, ThreadsFromEnvHonorsVariable) {
  { ScopedEnv env("EXTNC_SIMGPU_THREADS", "4");
    EXPECT_EQ(threads_from_env(), 4u); }
  { ScopedEnv env("EXTNC_SIMGPU_THREADS", "4x");
    EXPECT_EQ(threads_from_env(), 0u); }
  { ScopedEnv env("EXTNC_SIMGPU_THREADS", nullptr);
    EXPECT_EQ(threads_from_env(), 0u); }
}

TEST(ExecEngine, FastFromEnvHonorsVariable) {
  { ScopedEnv env("EXTNC_SIMGPU_FAST", "0"); EXPECT_FALSE(fast_from_env()); }
  { ScopedEnv env("EXTNC_SIMGPU_FAST", "1"); EXPECT_TRUE(fast_from_env()); }
  { ScopedEnv env("EXTNC_SIMGPU_FAST", nullptr);
    EXPECT_TRUE(fast_from_env()); }
}

// kAuto routes small launches to the serial engine (the pool's dispatch
// latch costs more than block parallelism wins back there) but still
// honors an explicit kParallel request of any size. The routing decision
// surfaces as the simgpu.launch.{serial,parallel} counters.
TEST(ExecEngine, AutoDispatchKeepsSmallLaunchesSerial) {
  if (engine_pool().num_threads() <= 1) {
    GTEST_SKIP() << "single-threaded pool: everything routes serial";
  }
  const ExecEngine saved = default_engine();
  set_default_engine(ExecEngine::kAuto);
  auto& registry = metrics::Registry::instance();
  auto route = [&](std::size_t blocks, ExecEngine engine) {
    const double serial0 = registry.value("simgpu.launch.serial");
    const double parallel0 = registry.value("simgpu.launch.parallel");
    Launcher launcher(gtx280());
    launcher.launch(
        {.blocks = blocks, .threads_per_block = 8, .engine = engine},
        [](BlockCtx& block) {
          block.step([](ThreadCtx& t) { t.count_alu(1); });
        });
    const bool went_serial =
        registry.value("simgpu.launch.serial") == serial0 + 1;
    const bool went_parallel =
        registry.value("simgpu.launch.parallel") == parallel0 + 1;
    EXPECT_NE(went_serial, went_parallel);
    return went_parallel;
  };
  // 8 blocks span several texture units on gtx280 (3 SMs per unit) but sit
  // under the kAuto dispatch threshold: routed serial.
  EXPECT_FALSE(route(8, ExecEngine::kAuto));
  // Enough blocks to amortize dispatch: kAuto goes parallel.
  EXPECT_TRUE(route(30, ExecEngine::kAuto));
  // An explicit kParallel forces the pool even for a small launch.
  EXPECT_TRUE(route(8, ExecEngine::kParallel));
  // An explicit kSerial always stays on the calling thread.
  EXPECT_FALSE(route(30, ExecEngine::kSerial));
  set_default_engine(saved);
}

TEST(TextureUnits, OnePerTpcAndDivisionMapping) {
  // gtx280: 30 SMs, 3 per TPC -> 10 units; consecutive SMs share a unit.
  Launcher launcher(gtx280());
  EXPECT_EQ(launcher.texture_cache_units(), 10u);
  EXPECT_EQ(launcher.texture_unit_of(0), 0u);
  EXPECT_EQ(launcher.texture_unit_of(2), 0u);
  EXPECT_EQ(launcher.texture_unit_of(3), 1u);
  EXPECT_EQ(launcher.texture_unit_of(29), 9u);
  // Block rotation wraps over SMs: block 30 lands back on SM 0.
  EXPECT_EQ(launcher.texture_unit_of(30), 0u);

  Launcher gt(geforce_8800gt());  // 14 SMs, 2 per TPC -> 7 units
  EXPECT_EQ(gt.texture_cache_units(), 7u);
  EXPECT_EQ(gt.texture_unit_of(1), 0u);
  EXPECT_EQ(gt.texture_unit_of(13), 6u);
}

// A kernel that exercises every accounting path: coalesced and scattered
// global traffic, bank-conflicting shared accesses, atomicMin, texture
// fetches (hits and misses), ALU charges, partial steps and barriers. The
// output is block-dependent so cross-block mixups would show in the bytes.
// Buffers are AlignedBuffers: transaction and texture-cache accounting is
// keyed to 64-byte segments of the real host addresses, so comparing two
// runs requires both to place their data at the same alignment.
struct SyntheticWorkload {
  AlignedBuffer input;
  AlignedBuffer output;
  AlignedBuffer table_bytes;  // 4096 u32 entries

  explicit SyntheticWorkload(std::size_t blocks, std::size_t threads)
      : input(blocks * threads * 4),
        output(blocks * threads * 4),
        table_bytes(4096 * 4) {
    for (std::size_t i = 0; i < input.size(); ++i) {
      input.data()[i] = static_cast<std::uint8_t>(i * 131 + 17);
    }
    auto* table = reinterpret_cast<std::uint32_t*>(table_bytes.data());
    for (std::size_t i = 0; i < 4096; ++i) {
      table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
  }

  std::vector<std::uint8_t> output_bytes() const {
    return {output.data(), output.data() + output.size()};
  }

  std::function<void(BlockCtx&)> kernel() {
    return [this](BlockCtx& block) {
      const auto* table =
          reinterpret_cast<const std::uint32_t*>(table_bytes.data());
      // Shared layout: one u32 accumulator per lane + one reduction word.
      block.step([&](ThreadCtx& t) {
        t.sstore_u32(t.lane() * 4, 0);
        t.count_alu(2);
      });
      block.step([&](ThreadCtx& t) {
        const std::size_t g = t.global_index();
        // Scattered global loads (stride breaks coalescing for odd lanes).
        const std::uint8_t a = t.gload_u8(input.data() + (g * 7) % input.size());
        const std::uint8_t b = t.gload_u8(input.data() + g);
        // Bank-conflicting shared traffic: lanes collide mod 4.
        const std::uint32_t prev = t.sload_u32((t.lane() % 4) * 4);
        t.sstore_u32(t.lane() * 4, prev + a + b);
        // Texture fetch through the block's TPC unit.
        const std::uint32_t tex = t.tex1d_u32(table, (g * 13) % 4096);
        t.count_alu(6);
        t.sstore_u32(t.lane() * 4, tex ^ (a << 8) ^ b);
      });
      // Min-reduction into one shared word: atomicMin where the device has
      // it, an in-order shared-memory reduction elsewhere (lanes of a block
      // always execute in lane order, on either engine).
      const std::size_t red = block.num_threads() * 4;
      block.step([&](ThreadCtx& t) {
        if (t.lane() == 0) t.sstore_u32(red, 0xffffffffu);
      });
      block.step([&](ThreadCtx& t) {
        if (block.spec().has_shared_atomics) {
          (void)t.atomic_min_shared(red, t.sload_u32(t.lane() * 4));
        } else {
          const std::uint32_t v = t.sload_u32(t.lane() * 4);
          if (v < t.sload_u32(red)) {
            t.sstore_u32(red, v);
          } else {
            t.skip_access();
          }
        }
      });
      // Partial step writes the result back, block-salted.
      block.step_partial(block.num_threads() / 2, [&](ThreadCtx& t) {
        const std::size_t g = t.global_index();
        const std::uint32_t v = t.sload_u32(t.lane() * 4) ^
                                t.sload_u32(red) ^
                                static_cast<std::uint32_t>(block.block_index());
        t.gstore_u32(output.data() + g * 4, v);
        t.count_alu(3);
      });
    };
  }
};

void expect_metrics_identical(const KernelMetrics& a, const KernelMetrics& b) {
  EXPECT_EQ(a.alu_deciops, b.alu_deciops);  // bitwise: merge order is block order
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes);
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.shared_access_events, b.shared_access_events);
  EXPECT_EQ(a.shared_serialized_cycles, b.shared_serialized_cycles);
  EXPECT_EQ(a.texture_fetches, b.texture_fetches);
  EXPECT_EQ(a.texture_misses, b.texture_misses);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.threads_per_block, b.threads_per_block);
}

TEST(EngineEquivalenceSynthetic, SerialAndParallelAreBitIdentical) {
  for (const DeviceSpec& spec : {gtx280(), geforce_8800gt()}) {
    for (std::size_t blocks : {1u, 7u, 30u, 61u}) {
      const std::size_t threads = 64;
      SyntheticWorkload serial_work(blocks, threads);
      SyntheticWorkload parallel_work(blocks, threads);

      Launcher serial_launcher(spec);
      Profiler serial_profiler;
      serial_launcher.set_profiler(&serial_profiler);
      serial_launcher.set_launch_label("equiv/synthetic");
      // Two launches back to back: texture-cache state carries across.
      for (int round = 0; round < 2; ++round) {
        serial_launcher.launch({.blocks = blocks,
                                .threads_per_block = threads,
                                .engine = ExecEngine::kSerial},
                               serial_work.kernel());
      }

      Launcher parallel_launcher(spec);
      Profiler parallel_profiler;
      parallel_launcher.set_profiler(&parallel_profiler);
      parallel_launcher.set_launch_label("equiv/synthetic");
      for (int round = 0; round < 2; ++round) {
        parallel_launcher.launch({.blocks = blocks,
                                  .threads_per_block = threads,
                                  .engine = ExecEngine::kParallel},
                                 parallel_work.kernel());
      }

      EXPECT_EQ(serial_work.output_bytes(), parallel_work.output_bytes())
          << spec.name << " blocks=" << blocks;
      expect_metrics_identical(serial_launcher.metrics(),
                               parallel_launcher.metrics());
      EXPECT_EQ(serial_launcher.elapsed_seconds(),
                parallel_launcher.elapsed_seconds());
      // The whole observable profile, serialized: timing model included.
      EXPECT_EQ(to_chrome_trace(serial_profiler),
                to_chrome_trace(parallel_profiler))
          << spec.name << " blocks=" << blocks;
    }
  }
}

TEST(EngineEquivalenceSynthetic, KernelExceptionReportsLowestBlock) {
  auto throwing_kernel = [](BlockCtx& block) {
    block.step([&](ThreadCtx& t) { t.count_alu(1); });
    if (block.block_index() >= 5) {
      throw std::runtime_error("block " +
                               std::to_string(block.block_index()));
    }
  };
  const LaunchConfig base{.blocks = 30, .threads_per_block = 16};
  for (ExecEngine engine : {ExecEngine::kSerial, ExecEngine::kParallel}) {
    Launcher launcher(gtx280());
    LaunchConfig config = base;
    config.engine = engine;
    try {
      launcher.launch(config, throwing_kernel);
      FAIL() << "kernel exception must propagate (" << engine_name(engine)
             << ")";
    } catch (const std::runtime_error& error) {
      // Serial stops at the first throwing block; parallel must surface
      // the same one even though later blocks of other units may also
      // have thrown.
      EXPECT_STREQ(error.what(), "block 5") << engine_name(engine);
    }
  }
}

TEST(EngineEquivalenceSynthetic, ParallelEngineActuallyRunsOffThread) {
  // Sanity check that kParallel schedules on pool workers (when the pool
  // has more than one thread, the launching thread never runs blocks).
  if (engine_pool().num_threads() < 2) {
    GTEST_SKIP() << "single-threaded pool: parallel engine degenerates";
  }
  std::atomic<int> off_thread{0};
  const std::thread::id caller = std::this_thread::get_id();
  Launcher launcher(gtx280());
  launcher.launch({.blocks = 30, .threads_per_block = 8,
                   .engine = ExecEngine::kParallel},
                  [&](BlockCtx& block) {
                    block.step([&](ThreadCtx&) {});
                    if (std::this_thread::get_id() != caller) {
                      off_thread.fetch_add(1);
                      return;
                    }
                    // The caller runs texture units of its own launch too,
                    // and on a loaded host it could finish all of them
                    // before a parked worker wakes. Holding each of its
                    // blocks until a worker has run one (or a generous
                    // deadline passes) leaves the remaining units to the
                    // workers without racing their wake-up.
                    const auto deadline = std::chrono::steady_clock::now() +
                                          std::chrono::seconds(10);
                    while (off_thread.load() == 0 &&
                           std::chrono::steady_clock::now() < deadline) {
                      std::this_thread::yield();
                    }
                  });
  EXPECT_GT(off_thread.load(), 0);
}

// --- profiler under concurrency -----------------------------------------

TEST(ProfilerTickets, TimelineFollowsTicketOrderNotCompletionOrder) {
  Profiler profiler;
  KernelMetrics metrics;
  metrics.kernel_launches = 1;
  metrics.blocks = 1;
  metrics.threads_per_block = 32;
  metrics.set_alu_ops(1000);

  // Reserve three tickets, record them in reverse.
  const std::uint64_t t0 = profiler.begin_ticket();
  const std::uint64_t t1 = profiler.begin_ticket();
  const std::uint64_t t2 = profiler.begin_ticket();
  profiler.record_launch_at(t2, gtx280(), "third", metrics);
  EXPECT_EQ(profiler.launch_count(), 0u);  // waiting on earlier tickets
  profiler.record_launch_at(t1, gtx280(), "second", metrics);
  EXPECT_EQ(profiler.launch_count(), 0u);
  profiler.record_launch_at(t0, gtx280(), "first", metrics);
  ASSERT_EQ(profiler.launch_count(), 3u);
  EXPECT_EQ(profiler.launches()[0].label, "first");
  EXPECT_EQ(profiler.launches()[1].label, "second");
  EXPECT_EQ(profiler.launches()[2].label, "third");
  // Timeline is contiguous: each start is the previous end.
  EXPECT_EQ(profiler.launches()[0].start_s, 0.0);
  EXPECT_EQ(profiler.launches()[1].start_s, profiler.launches()[0].end_s);
  EXPECT_EQ(profiler.launches()[2].start_s, profiler.launches()[1].end_s);
}

TEST(ProfilerTickets, AbandonedTicketClosesTheGap) {
  Profiler profiler;
  KernelMetrics metrics;
  metrics.kernel_launches = 1;
  metrics.blocks = 1;
  metrics.threads_per_block = 32;
  metrics.set_alu_ops(500);

  const std::uint64_t t0 = profiler.begin_ticket();
  const std::uint64_t t1 = profiler.begin_ticket();  // will fail
  const std::uint64_t t2 = profiler.begin_ticket();
  profiler.record_launch_at(t2, gtx280(), "after", metrics);
  profiler.abandon_ticket(t1);
  EXPECT_EQ(profiler.launch_count(), 0u);
  profiler.record_launch_at(t0, gtx280(), "before", metrics);
  ASSERT_EQ(profiler.launch_count(), 2u);
  EXPECT_EQ(profiler.launches()[0].label, "before");
  EXPECT_EQ(profiler.launches()[1].label, "after");
  EXPECT_EQ(profiler.launches()[1].start_s, profiler.launches()[0].end_s);
}

TEST(ProfilerTickets, ConcurrentRecordingKeepsDeterministicTimeline) {
  // Launch-begin order is serialized by begin_ticket; completion order is
  // scrambled across threads. The resulting timeline must be exactly the
  // ticket order with a contiguous clock. (Run under TSan in CI.)
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  Profiler profiler;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&profiler, w] {
      KernelMetrics metrics;
      metrics.kernel_launches = 1;
      metrics.blocks = 1;
      metrics.threads_per_block = 32;
      for (int i = 0; i < kPerThread; ++i) {
        metrics.set_alu_ops(100.0 * (w + 1));
        const std::uint64_t ticket = profiler.begin_ticket();
        if ((ticket % 17) == 3) {
          profiler.abandon_ticket(ticket);
          continue;
        }
        std::this_thread::yield();  // scramble completion order
        profiler.record_launch_at(ticket, gtx280(),
                                  "stress/" + std::to_string(w), metrics);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  const std::size_t abandoned =
      (kThreads * kPerThread + 13) / 17;  // tickets == 3 (mod 17)
  ASSERT_EQ(profiler.launch_count(),
            static_cast<std::size_t>(kThreads * kPerThread) - abandoned);
  double clock = 0;
  for (const LaunchProfile& launch : profiler.launches()) {
    EXPECT_EQ(launch.start_s, clock);
    clock = launch.end_s;
  }
  EXPECT_EQ(profiler.total_seconds(), clock);
}

}  // namespace
}  // namespace extnc::simgpu
