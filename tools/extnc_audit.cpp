// extnc_audit — static pre-launch audit of every shipped kernel.
//
//   extnc_audit [--device gtx280|8800gt|all] [--n N] [--k K] [--blocks B]
//               [--class uniform|stride64|sparse] [--zero-every N]
//               [--conflict-threshold D] [--uncoalesced-threshold T]
//               [--verbose]
//
// Derives the static access-pattern model of each kernel (the seven
// encode schemes, both preprocess kernels, the multi-segment inverter and
// the recoder) from DeviceSpec + geometry alone — no kernel runs — and
// audits geometry, shared/global footprints (OOB-freedom) and barrier
// structure, with advisory bank-conflict / uncoalesced lints. Prints one
// line per kernel with its closed-form access summary. Exit 1 if any
// audit *error* fires; advisories are printed but never affect the exit
// code (same contract as the dynamic sanitizer).
//
//   extnc_audit --seed-bug oob-tail|divergent-barrier|conflict-regression
//
// Negative controls: substitutes one deliberately mis-modeled kernel and
// exits 1 when the audit catches it (CTest WILL_FAIL asserts each class
// is caught; exit 0 would mean the audit lost its teeth).
#include <cstdio>
#include <string>
#include <vector>

#include "gpu/kernel_audit.h"
#include "simgpu/device_spec.h"
#include "simgpu/static_model.h"
#include "util/cli_flags.h"

namespace {

using namespace extnc;
using gpu::AuditCase;
using gpu::AuditFinding;
using gpu::AuditOptions;
using gpu::AuditReport;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "extnc_audit: %s\n", message.c_str());
  std::exit(2);
}

void print_case(const AuditCase& c, bool verbose) {
  const simgpu::KernelMetrics totals = c.model.totals();
  std::size_t errors = 0;
  std::size_t advisories = 0;
  for (const AuditFinding& f : c.findings) {
    if (f.advisory) {
      ++advisories;
    } else {
      ++errors;
    }
  }
  std::printf(
      "  %-28s %-5s %4zux%-3zu deg<=%-2llu tx<=%-2llu "
      "(%llu shared, %llu tx, %llu tex, %zu errors, %zu advisories)\n",
      c.kernel.c_str(), errors == 0 ? "clean" : "DIRTY", c.model.blocks,
      c.model.threads_per_block,
      static_cast<unsigned long long>(c.model.max_conflict_degree()),
      static_cast<unsigned long long>(c.model.max_group_transactions()),
      static_cast<unsigned long long>(totals.shared_accesses),
      static_cast<unsigned long long>(totals.global_transactions),
      static_cast<unsigned long long>(totals.texture_fetches), errors,
      advisories);
  for (const AuditFinding& f : c.findings) {
    if (!f.advisory || verbose) {
      std::printf("    [%s%s] %s\n", gpu::audit_kind_name(f.kind),
                  f.advisory ? " advisory" : "", f.detail.c_str());
    }
  }
  if (verbose) {
    for (const simgpu::SegmentModel& seg : c.model.segments) {
      std::printf(
          "    segment %-16s width %-4zu deg<=%-2llu "
          "(%llu events, %llu cycles)\n",
          seg.name.c_str(), seg.step_width,
          static_cast<unsigned long long>(seg.max_conflict_degree()),
          static_cast<unsigned long long>(seg.counters.shared_access_events),
          static_cast<unsigned long long>(
              seg.counters.shared_serialized_cycles));
    }
    for (const simgpu::FootprintRegion& region : c.model.footprint) {
      std::printf("    footprint %-18s %s %zu / %zu bytes\n",
                  region.name.c_str(), region.written ? "writes" : "reads",
                  region.bytes_needed, region.bytes_registered);
    }
  }
}

int audit_device(const simgpu::DeviceSpec& spec, const AuditOptions& options,
                 bool verbose) {
  const AuditReport report = gpu::run_kernel_audit(spec, options);
  std::printf("extnc_audit: %zu kernel models on %s (n=%zu, k=%zu, "
              "batch=%zu)\n",
              report.cases.size(), spec.name, options.params.n,
              options.params.k, options.batch_blocks);
  for (const AuditCase& c : report.cases) print_case(c, verbose);
  std::printf("extnc_audit: %s on %s (%zu errors, %zu advisories)\n",
              report.clean() ? "clean" : "FAILED", spec.name,
              report.error_count, report.advisory_count);
  return report.clean() ? 0 : 1;
}

int run_seed_bug(const simgpu::DeviceSpec& spec, const AuditOptions& options,
                 const std::string& name) {
  gpu::AuditSeedBug bug;
  if (name == "oob-tail") {
    bug = gpu::AuditSeedBug::kOobTail;
  } else if (name == "divergent-barrier") {
    bug = gpu::AuditSeedBug::kDivergentBarrier;
  } else if (name == "conflict-regression") {
    bug = gpu::AuditSeedBug::kConflictRegression;
  } else {
    die("unknown seed bug '" + name +
        "' (expected oob-tail, divergent-barrier or conflict-regression)");
  }
  const AuditReport report = gpu::run_seeded_audit(spec, options, bug);
  for (const AuditCase& c : report.cases) print_case(c, true);
  // The conflict regression surfaces as an advisory (bank-conflict lint at
  // the full degree); the footprint and barrier bugs as errors. Either way
  // a caught defect exits 1 for the WILL_FAIL harness.
  const bool caught = report.error_count > 0 || report.advisory_count > 0;
  std::printf("extnc_audit: seeded %s %s\n", name.c_str(),
              caught ? "caught" : "MISSED");
  return caught ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto flags = CliFlags::parse(
      argc, argv, 1,
      {{"--device", CliFlag::Kind::kText},
       {"--n", CliFlag::Kind::kSize},
       {"--k", CliFlag::Kind::kSize},
       {"--blocks", CliFlag::Kind::kSize},
       {"--class", CliFlag::Kind::kText},
       {"--zero-every", CliFlag::Kind::kSize},
       {"--conflict-threshold", CliFlag::Kind::kSize},
       {"--uncoalesced-threshold", CliFlag::Kind::kSize},
       {"--seed-bug", CliFlag::Kind::kText},
       {"--verbose", CliFlag::Kind::kBool}},
      &error);
  if (!flags) die(error);

  AuditOptions options;
  options.params.n = flags->size("--n", options.params.n);
  options.params.k = flags->size("--k", options.params.k);
  options.batch_blocks = flags->size("--blocks", options.batch_blocks);
  options.bank_conflict_threshold =
      flags->size("--conflict-threshold", options.bank_conflict_threshold);
  options.uncoalesced_threshold =
      flags->size("--uncoalesced-threshold", options.uncoalesced_threshold);
  options.assume.coeff_zero_every = flags->size("--zero-every", 0);
  const std::string cls = flags->text("--class", "uniform");
  if (cls == "uniform") {
    options.assume.payload_class = gpu::PayloadClass::kUniform;
  } else if (cls == "stride64") {
    options.assume.payload_class = gpu::PayloadClass::kStride64;
  } else if (cls == "sparse") {
    options.assume.payload_class = gpu::PayloadClass::kSparse;
  } else {
    die("unknown payload class '" + cls +
        "' (expected uniform, stride64 or sparse)");
  }
  if (options.params.n % 4 != 0 || options.params.k % 4 != 0) {
    die("--n and --k must be multiples of 4");
  }
  if (options.params.n > 255) {
    // The inverter's model matrix is a Vandermonde over distinct nonzero
    // points of GF(2^8), of which there are 255.
    die("--n " + std::to_string(options.params.n) +
        " exceeds 255, the number of nonzero GF(2^8) points");
  }

  const std::string device = flags->text("--device", "gtx280");
  std::vector<const simgpu::DeviceSpec*> specs;
  if (device == "all") {
    specs = {&simgpu::gtx280(), &simgpu::geforce_8800gt()};
  } else if (device == "gtx280") {
    specs = {&simgpu::gtx280()};
  } else if (device == "8800gt") {
    specs = {&simgpu::geforce_8800gt()};
  } else {
    die("unknown device '" + device + "' (expected gtx280, 8800gt or all)");
  }

  if (flags->has("--seed-bug")) {
    return run_seed_bug(*specs.front(), options,
                        flags->text("--seed-bug", ""));
  }
  int exit_code = 0;
  for (const simgpu::DeviceSpec* spec : specs) {
    exit_code |= audit_device(*spec, options, flags->has("--verbose"));
  }
  return exit_code;
}
