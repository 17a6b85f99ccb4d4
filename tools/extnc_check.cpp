// extnc_check — run every shipped kernel under the simgpu kernel sanitizer
// and gate on the result.
//
//   extnc_check [--device gtx280|8800gt] [--engine serial|parallel|both]
//               [--n N] [--k K] [--blocks B]
//
// Default mode sweeps all encode schemes, both decoders (every Sec. 5.4
// option combination the device supports), the recoder and the hybrid
// encoder under a collect-mode simgpu::Checker, printing one line per
// case. Exit status 1 if any case has error findings — advisory perf
// lints are printed but never fail the gate. With --engine both the
// serial and parallel sweeps must also produce bit-identical reports
// (the sanitizer analogue of the engine-equivalence tests).
//
//   extnc_check --seed-bug race|rw-race|oob-shared|oob-global|
//                          misaligned|divergence|stale
//
// Runs one deliberately-broken synthetic kernel instead and exits 1 when
// the sanitizer flags it (so CTest's WILL_FAIL can assert each bug class
// is caught; exit 0 here would mean a checker regression).
//
//   extnc_check --overhead [--max-slowdown F]
//
// Times a tb5 encode workload unchecked vs checked and exits 1 if the
// checked run exceeds F times the unchecked one (default 8; the checker
// audits every byte of every shared access but measures ~2x in practice —
// see DESIGN.md "Kernel sanitizer").
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gpu/gpu_encoder.h"
#include "gpu/kernel_check.h"
#include "simgpu/checker.h"
#include "simgpu/exec_engine.h"
#include "simgpu/executor.h"
#include "util/cli_flags.h"
#include "util/rng.h"

namespace {

using namespace extnc;
using namespace extnc::bench;
using simgpu::BlockCtx;
using simgpu::CheckConfig;
using simgpu::Checker;
using simgpu::ThreadCtx;

// ---------------------------------------------------------------- sweep --

int run_sweep(const simgpu::DeviceSpec& spec, simgpu::ExecEngine engine,
              const gpu::KernelCheckOptions& options, bool both) {
  const auto cases = gpu::run_kernel_checks(spec, engine, options);
  std::vector<gpu::KernelCheckCase> parallel_cases;
  if (both) {
    parallel_cases =
        gpu::run_kernel_checks(spec, simgpu::ExecEngine::kParallel, options);
  }

  int exit_code = 0;
  std::printf("extnc_check: %zu kernel cases on %s (n=%zu, k=%zu)\n",
              cases.size(), spec.name, options.params.n, options.params.k);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const gpu::KernelCheckCase& c = cases[i];
    const unsigned long long errors = c.report.errors();
    const unsigned long long advisories = c.report.advisories();
    std::printf("  %-28s %s  (%llu errors, %llu advisories, %llu launches)\n",
                c.name.c_str(), errors == 0 ? "clean" : "DIRTY", errors,
                advisories,
                static_cast<unsigned long long>(c.report.checked_launches));
    if (errors != 0) {
      std::printf("%s\n", c.report.to_string().c_str());
      exit_code = 1;
    }
    if (both && !(c.report == parallel_cases[i].report)) {
      std::printf("  %-28s ENGINE MISMATCH: serial and parallel reports "
                  "differ\n",
                  c.name.c_str());
      exit_code = 1;
    }
  }
  if (exit_code == 0) {
    std::printf("extnc_check: all cases clean%s\n",
                both ? ", serial and parallel reports identical" : "");
  }
  return exit_code;
}

// ------------------------------------------------------------ seeded bugs --

// Each seeded bug runs a tiny kernel that commits exactly one class of
// error; the tool exits 1 when the sanitizer reports it (the expected
// outcome, asserted via CTest WILL_FAIL) and 0 on a checker regression.
int run_seed_bug(const simgpu::DeviceSpec& spec, const std::string& bug) {
  CheckConfig config;
  config.mode = CheckConfig::Mode::kCollect;
  Checker checker(config);
  simgpu::Launcher launcher(spec);
  launcher.set_checker(&checker);
  launcher.set_launch_label("seeded/" + bug);
  const simgpu::LaunchConfig launch{.blocks = 1, .threads_per_block = 16};

  std::vector<std::uint8_t> small(16);
  Checker::ScopedWatch watch(&checker, small.data(), small.size(), "small");

  if (bug == "race") {
    // Every lane writes shared byte 0 in one segment: write/write hazard.
    launcher.launch(launch, [](BlockCtx& block) {
      block.step([](ThreadCtx& thread) {
        thread.sstore_u8(0, static_cast<std::uint8_t>(thread.lane()));
      });
    });
  } else if (bug == "rw-race") {
    // Lane 0 writes, later lanes read the same byte in the same segment.
    launcher.launch(launch, [](BlockCtx& block) {
      block.step([](ThreadCtx& thread) {
        if (thread.lane() == 0) {
          thread.sstore_u8(0, 1);
        } else {
          (void)thread.sload_u8(0);
        }
      });
    });
  } else if (bug == "oob-shared") {
    launcher.launch(launch, [&](BlockCtx& block) {
      block.step([&](ThreadCtx& thread) {
        (void)thread.sload_u8(spec.shared_mem_per_sm + thread.lane());
      });
    });
  } else if (bug == "oob-global") {
    // Reads stride past the end of the watched 16-byte buffer.
    launcher.launch(launch, [&](BlockCtx& block) {
      block.step([&](ThreadCtx& thread) {
        (void)thread.gload_u8(small.data() + small.size() + thread.lane());
      });
    });
  } else if (bug == "misaligned") {
    launcher.launch(launch, [](BlockCtx& block) {
      block.step([](ThreadCtx& thread) {
        thread.sstore_u32(2 + thread.lane() * 8, 0);
      });
    });
  } else if (bug == "divergence") {
    // A partial step the launch shape never declared.
    launcher.launch(launch, [](BlockCtx& block) {
      block.step_partial(3, [](ThreadCtx& thread) {
        thread.sstore_u32(thread.lane() * 4, 1);
      });
    });
  } else if (bug == "stale") {
    // In-bounds read of shared memory no lane ever wrote this launch.
    launcher.launch(launch, [](BlockCtx& block) {
      block.step([](ThreadCtx& thread) {
        (void)thread.sload_u8(128 + thread.lane());
      });
    });
  } else {
    die("unknown --seed-bug '" + bug +
        "' (expected race, rw-race, oob-shared, oob-global, misaligned, "
        "divergence or stale)");
  }

  const simgpu::CheckReport& report = checker.report();
  std::printf("extnc_check: seeded '%s' -> %llu error findings\n",
              bug.c_str(),
              static_cast<unsigned long long>(report.errors()));
  std::printf("%s\n", report.to_string().c_str());
  return report.errors() > 0 ? 1 : 0;
}

// -------------------------------------------------------------- overhead --

double time_encode(const simgpu::DeviceSpec& spec, Checker* checker) {
  Rng rng(7);
  const coding::Params params{.n = 64, .k = 1024};
  const coding::Segment segment = coding::Segment::random(params, rng);
  gpu::GpuEncoder encoder(spec, segment, gpu::EncodeScheme::kTable5,
                          /*profiler=*/nullptr, "overhead",
                          /*injector=*/nullptr, checker);
  const auto start = std::chrono::steady_clock::now();
  encoder.encode_batch(64, rng);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

int run_overhead(const simgpu::DeviceSpec& spec, double max_slowdown) {
  // Measure instrumentation cost against the interpreted engine: checked
  // launches always interpret, so letting the unchecked baseline take the
  // warp-batched fast path would fold the fast-path speedup into the
  // reported "overhead" and blow the budget for the wrong reason.
  const bool fast_saved = simgpu::fast_path_enabled();
  simgpu::set_fast_path_enabled(false);
  // Warm up tables/allocator, then take the best of three per variant so
  // the guard is robust to scheduler noise on loaded CI hosts.
  (void)time_encode(spec, nullptr);
  double unchecked = 1e9;
  double checked = 1e9;
  CheckConfig config;
  config.mode = CheckConfig::Mode::kCollect;
  for (int i = 0; i < 3; ++i) {
    unchecked = std::min(unchecked, time_encode(spec, nullptr));
    Checker checker(config);
    checked = std::min(checked, time_encode(spec, &checker));
  }
  simgpu::set_fast_path_enabled(fast_saved);
  const double slowdown = checked / unchecked;
  std::printf("extnc_check: overhead tb5 encode: unchecked %.3f ms, "
              "checked %.3f ms, slowdown %.1fx (budget %.1fx)\n",
              unchecked * 1e3, checked * 1e3, slowdown, max_slowdown);
  if (slowdown > max_slowdown) {
    std::fprintf(stderr,
                 "error: checker overhead %.1fx exceeds --max-slowdown "
                 "%.1fx\n",
                 slowdown, max_slowdown);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto flags = CliFlags::parse(
      argc, argv, 1,
      {{"--device", CliFlag::Kind::kText},
       {"--engine", CliFlag::Kind::kText},
       {"--n", CliFlag::Kind::kSize},
       {"--k", CliFlag::Kind::kSize},
       {"--blocks", CliFlag::Kind::kSize},
       {"--seed-bug", CliFlag::Kind::kText},
       {"--overhead", CliFlag::Kind::kBool},
       {"--max-slowdown", CliFlag::Kind::kNumber}},
      &error);
  if (!flags.has_value()) die(error);

  const simgpu::DeviceSpec& spec =
      device_by_name(flags->text("--device", "gtx280"));

  const std::string bug = flags->text("--seed-bug");
  if (!bug.empty()) return run_seed_bug(spec, bug);
  if (flags->has("--overhead")) {
    return run_overhead(spec, flags->number("--max-slowdown", 8.0));
  }

  gpu::KernelCheckOptions options;
  options.params.n = flags->size("--n", options.params.n);
  options.params.k = flags->size("--k", options.params.k);
  options.batch_blocks = flags->size("--blocks", options.batch_blocks);
  if (options.params.n % 4 != 0 || options.params.k % 4 != 0) {
    die("--n and --k must be multiples of 4 (GPU kernels use 32-bit words)");
  }
  // The single-segment decoder caches the n x n coefficient matrix plus
  // its 4-byte atomic pivot word in shared memory.
  const std::size_t shared_needed = options.params.n * options.params.n + 4;
  if (shared_needed > spec.shared_mem_per_sm) {
    die("--n " + std::to_string(options.params.n) + " needs " +
        std::to_string(shared_needed) + " bytes of shared memory (n^2 + 4); " +
        spec.name + " has " + std::to_string(spec.shared_mem_per_sm));
  }

  const std::string engine_arg = flags->text("--engine", "both");
  if (engine_arg == "both") {
    return run_sweep(spec, simgpu::ExecEngine::kSerial, options,
                     /*both=*/true);
  }
  const auto engine = simgpu::parse_engine(engine_arg);
  if (!engine.has_value()) {
    die("unknown --engine '" + engine_arg +
        "' (expected serial, parallel or both)");
  }
  return run_sweep(spec, *engine, options, /*both=*/false);
}
