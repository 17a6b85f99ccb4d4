// The kernel sanitizer: hazard detection with lane/segment attribution,
// OOB suppression, barrier-divergence and stale-read checks, advisory perf
// lints, throw/collect modes, env + LaunchConfig opt-in plumbing, engine
// bit-equivalence of reports, and composition with the fault injector.
#include "simgpu/checker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"
#include "simgpu/executor.h"
#include "simgpu/fault_injector.h"
#include "util/metrics_registry.h"

namespace extnc::simgpu {
namespace {

// Pin the process-default engine, which every launch resolves, for one
// scope; restores the previous default on exit.
class EngineGuard {
 public:
  explicit EngineGuard(ExecEngine engine) : saved_(default_engine()) {
    set_default_engine(engine);
  }
  ~EngineGuard() { set_default_engine(saved_); }
  EngineGuard(const EngineGuard&) = delete;
  EngineGuard& operator=(const EngineGuard&) = delete;

 private:
  ExecEngine saved_;
};

std::size_t count_of(const CheckReport& report, CheckKind kind) {
  return static_cast<std::size_t>(
      report.counts[static_cast<std::size_t>(kind)]);
}

CheckConfig collect_config() {
  CheckConfig config;
  config.mode = CheckConfig::Mode::kCollect;
  return config;
}

// A collect-mode checker attached to a gtx280 launcher, the setup most
// tests want: launches never throw, the cumulative report is inspected.
struct Harness {
  Checker checker;
  Launcher launcher;

  explicit Harness(CheckConfig config = collect_config(),
                   const DeviceSpec& spec = gtx280())
      : checker(config), launcher(spec) {
    launcher.set_checker(&checker);
    launcher.set_launch_label("test/kernel");
  }

  const CheckReport& report() const { return checker.report(); }
};

// Saves/restores EXTNC_SIMGPU_CHECK around env-driven opt-in tests.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    const char* old = std::getenv(kName);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(kName);
    } else {
      ::setenv(kName, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(kName, old_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "EXTNC_SIMGPU_CHECK";
  bool had_old_ = false;
  std::string old_;
};

// --- shared-memory hazards ----------------------------------------------

TEST(CheckerHazards, WriteWriteAttributesFirstPairAndCountsTheRest) {
  Harness h;
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        t.sstore_u8(0, static_cast<std::uint8_t>(t.lane()));
                      });
                    });
  const CheckReport& report = h.report();
  // Lane 0's write is hazard-free; each of lanes 1..15 races the previous
  // writer. One finding per (byte, segment); every event counted.
  EXPECT_EQ(count_of(report, CheckKind::kSharedWriteWrite), 15u);
  ASSERT_EQ(report.findings.size(), 1u);
  const CheckFinding& f = report.findings[0];
  EXPECT_EQ(f.kind, CheckKind::kSharedWriteWrite);
  EXPECT_EQ(f.label, "test/kernel");
  EXPECT_EQ(f.block, 0u);
  EXPECT_EQ(f.segment, 0u);
  EXPECT_EQ(f.lane, 1u);
  EXPECT_EQ(f.other_lane, 0u);
  EXPECT_EQ(f.address, 0u);
  EXPECT_EQ(report.checked_launches, 1u);
}

TEST(CheckerHazards, ReadAfterWriteInOneSegmentIsFlagged) {
  Harness h;
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        if (t.lane() == 0) {
                          t.sstore_u8(0, 1);
                        } else if (t.lane() == 5) {
                          (void)t.sload_u8(0);
                        }
                      });
                    });
  const CheckReport& report = h.report();
  EXPECT_EQ(count_of(report, CheckKind::kSharedReadWrite), 1u);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, CheckKind::kSharedReadWrite);
  EXPECT_EQ(report.findings[0].lane, 5u);
  EXPECT_EQ(report.findings[0].other_lane, 0u);
}

TEST(CheckerHazards, BarrierSeparatesSegmentsAndAttributesThem) {
  Harness h;
  h.launcher.launch(
      {.blocks = 1, .threads_per_block = 16}, [](BlockCtx& block) {
        // Segment 0: a single write — clean.
        block.step([](ThreadCtx& t) {
          if (t.lane() == 0) t.sstore_u8(0, 1);
        });
        // Segment 1: reading byte 0 across the barrier is fine; the
        // lanes 1.. writes to byte 4 race each other *in segment 1*.
        block.step([](ThreadCtx& t) {
          if (t.lane() == 0) {
            (void)t.sload_u8(0);
          } else {
            t.sstore_u8(4, 2);
          }
        });
      });
  const CheckReport& report = h.report();
  EXPECT_EQ(count_of(report, CheckKind::kSharedReadWrite), 0u);
  EXPECT_EQ(count_of(report, CheckKind::kSharedWriteWrite), 14u);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].segment, 1u);
  EXPECT_EQ(report.findings[0].address, 4u);
}

TEST(CheckerHazards, AtomicPairsAreExempt) {
  Harness h;
  LaunchConfig config{.blocks = 1, .threads_per_block = 16};
  config.shape.partial_counts = {1};
  h.launcher.launch(config, [](BlockCtx& block) {
    block.step_partial(1,
                       [](ThreadCtx& t) { t.sstore_u32(0, 0xffffffffu); });
    block.step([](ThreadCtx& t) {
      (void)t.atomic_min_shared(0, static_cast<std::uint32_t>(t.lane()));
    });
  });
  EXPECT_TRUE(h.report().clean()) << h.report().to_string();
}

TEST(CheckerHazards, AtomicAgainstPlainWriteIsStillAHazard) {
  Harness h;
  LaunchConfig config{.blocks = 1, .threads_per_block = 16};
  config.shape.partial_counts = {1};
  h.launcher.launch(config, [](BlockCtx& block) {
    block.step_partial(1, [](ThreadCtx& t) { t.sstore_u32(0, 100); });
    block.step([](ThreadCtx& t) {
      if (t.lane() == 0) {
        t.sstore_u32(0, 5);  // plain write...
      } else if (t.lane() == 1) {
        (void)t.atomic_min_shared(0, 3);  // ...races the atomic RMW
      }
    });
  });
  const CheckReport& report = h.report();
  EXPECT_GT(report.errors(), 0u);
  EXPECT_GE(count_of(report, CheckKind::kSharedReadWrite), 1u);
}

// --- bounds and alignment -----------------------------------------------

TEST(CheckerBounds, SharedOobIsSuppressedAndReported) {
  Harness h;
  const std::size_t size = gtx280().shared_mem_per_sm;
  std::vector<std::uint8_t> loaded(16, 0xee);
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [&](BlockCtx& block) {
                      block.step([&](ThreadCtx& t) {
                        loaded[t.lane()] = t.sload_u8(size + t.lane());
                      });
                    });
  EXPECT_EQ(count_of(h.report(), CheckKind::kSharedOob), 16u);
  // Suppressed loads read 0 so the checked run completes deterministically.
  for (std::uint8_t v : loaded) EXPECT_EQ(v, 0u);
  ASSERT_FALSE(h.report().findings.empty());
  EXPECT_EQ(h.report().findings[0].address, size);
  EXPECT_EQ(h.report().findings[0].size, 1u);
}

TEST(CheckerBoundsDeathTest, UncheckedSharedOobAbortsEvenInRelease) {
  // Satellite of the sanitizer work: SharedMemory accessors bounds-check
  // with EXTNC_CHECK (never EXTNC_DASSERT), so an *unchecked* OOB access
  // aborts instead of corrupting the heap — in release builds too.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv env(nullptr);  // no env opt-in: genuinely unchecked
  Launcher launcher(gtx280());
  EXPECT_DEATH(
      launcher.launch({.blocks = 1, .threads_per_block = 1},
                      [](BlockCtx& block) {
                        block.step([](ThreadCtx& t) {
                          (void)t.sload_u8(1u << 20);
                        });
                      }),
      "EXTNC_CHECK failed");
}

TEST(CheckerBounds, MisalignedSharedU32) {
  Harness h;
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        if (t.lane() == 0) t.sstore_u32(2, 1);
                      });
                    });
  EXPECT_EQ(count_of(h.report(), CheckKind::kSharedMisaligned), 1u);
  ASSERT_FALSE(h.report().findings.empty());
  EXPECT_EQ(h.report().findings[0].address, 2u);
  EXPECT_EQ(h.report().findings[0].size, 4u);
}

TEST(CheckerBounds, GlobalOobAgainstWatchedRegions) {
  Harness h;
  std::vector<std::uint8_t> buffer(64, 0xaa);
  Checker::ScopedWatch watch(&h.checker, buffer.data(), buffer.size(), "buf");
  std::vector<std::uint8_t> loaded(16, 0xee);
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [&](BlockCtx& block) {
                      // In-bounds sweep: clean.
                      block.step([&](ThreadCtx& t) {
                        (void)t.gload_u8(buffer.data() + t.lane());
                      });
                      // One past the end and further: OOB, loads read 0.
                      block.step([&](ThreadCtx& t) {
                        loaded[t.lane()] =
                            t.gload_u8(buffer.data() + 64 + t.lane());
                      });
                    });
  EXPECT_EQ(count_of(h.report(), CheckKind::kGlobalOob), 16u);
  for (std::uint8_t v : loaded) EXPECT_EQ(v, 0u);
}

TEST(CheckerBounds, GlobalBoundsNeedRegionsButAlignmentDoesNot) {
  // With no watched regions only alignment is enforced: arbitrary host
  // pointers stay legal (kernels routinely mix watched and plain memory).
  Harness h;
  alignas(4) std::uint8_t data[64] = {};
  h.launcher.launch({.blocks = 1, .threads_per_block = 4},
                    [&](BlockCtx& block) {
                      block.step([&](ThreadCtx& t) {
                        (void)t.gload_u8(data + t.lane());  // unwatched: fine
                      });
                      block.step([&](ThreadCtx& t) {
                        if (t.lane() == 0) (void)t.gload_u32(data + 1);
                      });
                    });
  EXPECT_EQ(count_of(h.report(), CheckKind::kGlobalOob), 0u);
  EXPECT_EQ(count_of(h.report(), CheckKind::kGlobalMisaligned), 1u);
}

// --- barrier divergence and stale reads ---------------------------------

TEST(CheckerDivergence, UndeclaredPartialStepIsFlaggedOncePerBlock) {
  Harness h;
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [](BlockCtx& block) {
                      block.step_partial(3, [](ThreadCtx& t) {
                        t.sstore_u32(t.lane() * 4, 1);
                      });
                      block.step_partial(3, [](ThreadCtx& t) {
                        t.sstore_u32(t.lane() * 4, 2);
                      });
                    });
  const CheckReport& report = h.report();
  EXPECT_EQ(count_of(report, CheckKind::kBarrierDivergence), 2u);
  ASSERT_EQ(report.findings.size(), 1u);  // deduped per undeclared width
  EXPECT_EQ(report.findings[0].kind, CheckKind::kBarrierDivergence);
  EXPECT_EQ(report.findings[0].value, 3u);
}

TEST(CheckerDivergence, DeclaredShapeAndFullWidthAreLegal) {
  Harness h;
  LaunchConfig config{.blocks = 1, .threads_per_block = 16};
  config.shape.partial_counts = {3};
  h.launcher.launch(config, [](BlockCtx& block) {
    block.step_partial(3,
                       [](ThreadCtx& t) { t.sstore_u32(t.lane() * 4, 1); });
    block.step_partial(16,
                       [](ThreadCtx& t) { t.sstore_u32(t.lane() * 4, 2); });
  });
  EXPECT_TRUE(h.report().clean()) << h.report().to_string();
}

TEST(CheckerStale, ReadOfNeverWrittenSharedMemory) {
  Harness h;
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        (void)t.sload_u8(64 + t.lane());
                      });
                    });
  const CheckReport& report = h.report();
  // 16 distinct never-written bytes: one finding each.
  EXPECT_EQ(count_of(report, CheckKind::kStaleSharedRead), 16u);
  ASSERT_EQ(report.findings.size(), 16u);
  EXPECT_EQ(report.findings[0].kind, CheckKind::kStaleSharedRead);
  EXPECT_EQ(report.findings[0].lane, 0u);
  EXPECT_EQ(report.findings[0].address, 64u);
}

TEST(CheckerStale, SharedStateDoesNotLeakAcrossBlocks) {
  // Shared memory is not persistent across blocks (Sec. 5.1.2): block 0
  // producing a byte does not legitimize block 1 consuming it.
  Harness h;
  h.launcher.launch({.blocks = 2, .threads_per_block = 4},
                    [](BlockCtx& block) {
                      if (block.block_index() == 0) {
                        block.step([](ThreadCtx& t) {
                          if (t.lane() == 0) t.sstore_u8(0, 7);
                        });
                      }
                      block.step([](ThreadCtx& t) {
                        if (t.lane() == 0) (void)t.sload_u8(0);
                      });
                    });
  const CheckReport& report = h.report();
  EXPECT_EQ(count_of(report, CheckKind::kStaleSharedRead), 1u);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].block, 1u);
}

// --- modes, toggles and plumbing ----------------------------------------

TEST(CheckerModes, ThrowModeThrowsAfterFullAccounting) {
  Checker checker;  // default config: kThrow
  Launcher launcher(gtx280());
  launcher.set_checker(&checker);
  launcher.set_launch_label("test/throwing");
  try {
    launcher.launch({.blocks = 1, .threads_per_block = 8},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        t.sstore_u8(0, static_cast<std::uint8_t>(t.lane()));
                      });
                    });
    FAIL() << "racey launch in kThrow mode must throw CheckError";
  } catch (const CheckError& error) {
    EXPECT_EQ(error.report().errors(), 7u);
    EXPECT_NE(std::string(error.what()).find("shared_write_write"),
              std::string::npos);
  }
  // The launch completed and was accounted before the throw: metrics,
  // modeled time and the cumulative report all show it.
  EXPECT_EQ(launcher.metrics().kernel_launches, 1u);
  EXPECT_GT(launcher.elapsed_seconds(), 0.0);
  EXPECT_EQ(checker.report().checked_launches, 1u);
  EXPECT_EQ(checker.report().errors(), 7u);
}

TEST(CheckerModes, AdvisoryLintsNeverThrow) {
  Checker checker;  // kThrow — but advisories are not errors
  Launcher launcher(gtx280());
  launcher.set_checker(&checker);
  // All 16 lanes hit bank 0 with distinct words: a 16-way conflict, over
  // the default threshold of 8.
  launcher.launch({.blocks = 1, .threads_per_block = 16},
                  [](BlockCtx& block) {
                    block.step([](ThreadCtx& t) {
                      t.sstore_u32(t.lane() * 64, 1);
                    });
                  });
  const CheckReport& report = checker.report();
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_GT(count_of(report, CheckKind::kBankConflictLint), 0u);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].value, 16u);  // conflict degree
}

TEST(CheckerModes, UncoalescedSweepIsLinted) {
  Harness h;
  std::vector<std::uint8_t> buffer(16 * 64, 1);
  Checker::ScopedWatch watch(&h.checker, buffer.data(), buffer.size(), "buf");
  // Each lane of the half-warp touches its own 64-byte segment: 16
  // transactions, at the default threshold.
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [&](BlockCtx& block) {
                      block.step([&](ThreadCtx& t) {
                        (void)t.gload_u8(buffer.data() + t.lane() * 64);
                      });
                    });
  EXPECT_GT(count_of(h.report(), CheckKind::kUncoalescedLint), 0u);
  EXPECT_EQ(h.report().errors(), 0u);
}

TEST(CheckerModes, PerfLintsCanBeDisabled) {
  CheckConfig config = collect_config();
  config.perf_lints = false;
  Harness h(config);
  h.launcher.launch({.blocks = 1, .threads_per_block = 16},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        t.sstore_u32(t.lane() * 64, 1);
                      });
                    });
  EXPECT_EQ(h.report().advisories(), 0u);
}

TEST(CheckerModes, LaunchConfigOffDisablesAnAttachedChecker) {
  Harness h;
  LaunchConfig config{.blocks = 1, .threads_per_block = 8};
  config.check = CheckToggle::kOff;
  h.launcher.launch(config, [](BlockCtx& block) {
    block.step([](ThreadCtx& t) {
      t.sstore_u8(0, static_cast<std::uint8_t>(t.lane()));
    });
  });
  EXPECT_EQ(h.report().checked_launches, 0u);
  EXPECT_TRUE(h.report().clean());
}

TEST(CheckerModes, LaunchConfigOnCreatesAnInternalThrowingChecker) {
  ScopedEnv env(nullptr);
  Launcher launcher(gtx280());  // nothing attached
  LaunchConfig config{.blocks = 1, .threads_per_block = 8};
  config.check = CheckToggle::kOn;
  EXPECT_THROW(
      launcher.launch(config,
                      [](BlockCtx& block) {
                        block.step([](ThreadCtx& t) {
                          t.sstore_u8(0,
                                      static_cast<std::uint8_t>(t.lane()));
                        });
                      }),
      CheckError);
}

TEST(CheckerEnv, CollectModeFeedsTheMetricsRegistry) {
  ScopedEnv env("collect");
  metrics::Registry::instance().reset();
  Launcher launcher(gtx280());  // no attached checker: env creates one
  launcher.launch({.blocks = 1, .threads_per_block = 16},
                  [](BlockCtx& block) {
                    block.step([](ThreadCtx& t) {
                      t.sstore_u8(0, static_cast<std::uint8_t>(t.lane()));
                    });
                  });
  // collect mode: no throw; the findings surface through the registry.
  EXPECT_EQ(
      metrics::Registry::instance().value("simgpu.check.shared_write_write"),
      15.0);
  EXPECT_EQ(metrics::Registry::instance().value("simgpu.check.launches"),
            1.0);
}

TEST(CheckerEnv, ThrowModeThrowsWithoutAnAttachedChecker) {
  ScopedEnv env("1");
  Launcher launcher(gtx280());
  EXPECT_THROW(
      launcher.launch({.blocks = 1, .threads_per_block = 8},
                      [](BlockCtx& block) {
                        block.step([](ThreadCtx& t) {
                          t.sstore_u8(0,
                                      static_cast<std::uint8_t>(t.lane()));
                        });
                      }),
      CheckError);
}

TEST(CheckerEnv, ModeParsing) {
  {
    ScopedEnv env(nullptr);
    EXPECT_FALSE(env_check_mode().has_value());
  }
  for (const char* off : {"", "0", "off"}) {
    ScopedEnv env(off);
    EXPECT_FALSE(env_check_mode().has_value()) << off;
  }
  {
    ScopedEnv env("collect");
    EXPECT_EQ(env_check_mode(), CheckConfig::Mode::kCollect);
  }
  for (const char* on : {"1", "on", "throw", "anything-else"}) {
    ScopedEnv env(on);
    EXPECT_EQ(env_check_mode(), CheckConfig::Mode::kThrow) << on;
  }
}

TEST(CheckerReport, MergeCapsFindingsButNeverCounts) {
  CheckReport a;
  for (int i = 0; i < 5; ++i) {
    a.findings.push_back({.kind = CheckKind::kSharedOob,
                          .lane = static_cast<std::size_t>(i)});
  }
  a.counts[static_cast<std::size_t>(CheckKind::kSharedOob)] = 5;
  a.checked_launches = 1;
  CheckReport merged;
  merged.merge(a, /*max_findings=*/2);
  merged.merge(a, /*max_findings=*/2);
  EXPECT_EQ(merged.findings.size(), 2u);
  EXPECT_EQ(merged.counts[static_cast<std::size_t>(CheckKind::kSharedOob)],
            10u);
  EXPECT_EQ(merged.checked_launches, 2u);
  EXPECT_EQ(merged.errors(), 10u);
}

// --- engines and fault injection ----------------------------------------

TEST(CheckerEngines, SerialAndParallelReportsAreBitIdentical) {
  // A deliberately dirty multi-block kernel: races, stale reads, an
  // undeclared partial and bank conflicts. Per-block findings merge in
  // ascending block order, so the engines must agree byte for byte.
  auto dirty = [](BlockCtx& block) {
    block.step([](ThreadCtx& t) {
      t.sstore_u8(0, static_cast<std::uint8_t>(t.lane()));
    });
    block.step([&](ThreadCtx& t) {
      (void)t.sload_u8(100 + block.block_index() + t.lane());
    });
    block.step_partial(5, [](ThreadCtx& t) { t.sstore_u32(t.lane() * 64, 1); });
  };
  CheckReport reports[2];
  const ExecEngine engines[2] = {ExecEngine::kSerial, ExecEngine::kParallel};
  for (int i = 0; i < 2; ++i) {
    const EngineGuard pin(engines[i]);
    Harness h;
    h.launcher.launch({.blocks = 7, .threads_per_block = 16}, dirty);
    reports[i] = h.report();
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0].to_string(), reports[1].to_string());
  EXPECT_GT(reports[0].errors(), 0u);  // the comparison is not vacuous
}

TEST(CheckerCompose, ChecksAndFaultInjectionCoexist) {
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kHang;
  FaultInjector injector(plan);
  Harness h;
  h.launcher.set_fault_injector(&injector);
  h.launcher.launch({.blocks = 1, .threads_per_block = 8},
                    [](BlockCtx& block) {
                      block.step([](ThreadCtx& t) {
                        t.sstore_u8(0, static_cast<std::uint8_t>(t.lane()));
                      });
                    });
  EXPECT_EQ(injector.counters().hangs, 1u);   // the fault fired...
  EXPECT_EQ(h.report().errors(), 7u);         // ...and so did the checker
  EXPECT_EQ(h.report().checked_launches, 1u);
}

}  // namespace
}  // namespace extnc::simgpu
