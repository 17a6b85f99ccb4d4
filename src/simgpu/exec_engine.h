// Host execution-engine selection for the simulated GPU.
//
// A simgpu launch can run its thread blocks serially on the calling thread
// (the original engine, and the oracle in equivalence tests) or scheduled
// across a process-wide host worker pool (the parallel engine). Blocks are
// independent by construction — barriers only synchronize lanes within a
// block, exactly CUDA's contract — so the parallel engine is bit-identical
// to the serial one (see DESIGN.md, "Parallel block execution").
//
// Selection order, most specific wins:
//   1. set_default_engine()  (process-wide programmatic override)
//   2. EXTNC_SIMGPU_ENGINE   (environment: "serial" | "parallel" | "auto")
//   3. kAuto, which resolves to parallel when a launch has enough blocks
//      to span more than one texture-cache unit and the pool has more than
//      one worker.
// The worker-pool size comes from EXTNC_SIMGPU_THREADS (0/unset selects
// std::thread::hardware_concurrency()).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "util/thread_pool.h"

namespace extnc::simgpu {

enum class ExecEngine {
  kAuto,
  kSerial,
  kParallel,
};

const char* engine_name(ExecEngine engine);

// Parse "serial" | "parallel" | "auto"; nullopt on anything else.
std::optional<ExecEngine> parse_engine(std::string_view text);

// Process-wide default engine. First use initializes it from
// EXTNC_SIMGPU_ENGINE (kAuto when unset or unparsable).
ExecEngine default_engine();
// Programmatic override of the process default — the in-process equivalent
// of the environment variable, used by benches and the equivalence tests
// to pin an engine for whole operations whose internal launches use kAuto.
void set_default_engine(ExecEngine engine);

// The shared host worker pool the parallel engine schedules on. Created
// lazily on first use; sized from EXTNC_SIMGPU_THREADS.
ThreadPool& engine_pool();

// Process-wide toggle for the zero-instrumentation fast path: kernels that
// ship a bulk lowering (src/gpu) execute whole half-warps through the host
// SIMD GF(2^8) region ops with bulk accounting instead of interpreting
// lane-at-a-time, whenever the launch runs unchecked (no sanitizer). The
// fast path is bit-identical to the interpreted engines — outputs, every
// KernelMetrics field, modeled clocks, traces — so it defaults to ON; it
// exists as a toggle so equivalence tests and overhead measurements can
// pin the interpreted path. First use initializes from EXTNC_SIMGPU_FAST
// ("0" disables; anything else, or unset, enables).
bool fast_path_enabled();
void set_fast_path_enabled(bool enabled);

// Raw environment readers behind the lazy defaults above, exposed so the
// environment contract stays regression-testable: the defaults latch once
// per process, but these re-read the environment on every call.
//   engine_from_env  — EXTNC_SIMGPU_ENGINE, kAuto when unset/unparsable
//   threads_from_env — EXTNC_SIMGPU_THREADS, 0 (hardware concurrency)
//                      when unset/unparsable
//   fast_from_env    — EXTNC_SIMGPU_FAST, true unless exactly "0"
ExecEngine engine_from_env();
std::size_t threads_from_env();
bool fast_from_env();

}  // namespace extnc::simgpu
