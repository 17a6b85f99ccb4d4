// Sanitizer sweep over every shipped kernel.
//
// run_kernel_checks drives each GPU code path the library ships — all
// seven encode schemes, the single-segment decoder in each Sec. 5.4 option
// combination, the multi-segment decoder, the recoder, and the hybrid
// encoder's GPU half — under a collect-mode simgpu::Checker with every
// device buffer registered, on a caller-chosen exec engine. One fresh
// checker per case, so each report attributes to exactly one kernel
// family. The extnc_check CLI and the clean-suite tests are thin wrappers
// over this: "zero error findings on every case" is the CI gate, and
// "identical reports from the serial and parallel engines" is the engine-
// invariance check.
#pragma once

#include <string>
#include <vector>

#include "coding/params.h"
#include "simgpu/checker.h"
#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"

namespace extnc::gpu {

struct KernelCheckCase {
  std::string name;  // e.g. "encode/tb5", "decode/single+atomic+cache"
  simgpu::CheckReport report;
};

struct KernelCheckOptions {
  // Small enough to sweep in well under a second, large enough that every
  // kernel takes its strided/multi-block paths; both dimensions must be
  // multiples of 4 (GPU kernels operate on words).
  coding::Params params{.n = 16, .k = 256};
  std::size_t batch_blocks = 16;  // coded blocks per encode batch
  std::uint64_t seed = 1;
};

// Runs every case on `engine` (kSerial / kParallel / kAuto pinned for the
// sweep's duration) and returns the per-case reports, in a fixed order.
std::vector<KernelCheckCase> run_kernel_checks(
    const simgpu::DeviceSpec& spec, simgpu::ExecEngine engine,
    const KernelCheckOptions& options = {});

}  // namespace extnc::gpu
