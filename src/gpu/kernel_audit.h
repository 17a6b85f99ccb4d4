// Static kernel models and the pre-launch audit for the shipped kernels.
//
// Each provider here derives a simgpu::StaticKernelModel for one kernel —
// the loop encoder, the table schemes tb0-tb5, both preprocessing kernels,
// the multi-segment inverter and the recoder — by running the kernel's
// accounting walk (gpu/kernel_walks.h) into a SegmentBuilder sink: the
// same walk the fast path runs into BlockCtx, so model and fast path
// cannot drift apart. The walk reads accounting-domain bytes; a model
// builds them from a *payload class* (ModelAssumptions, a synthetic byte
// function) with synthesize_segment / synthesize_batch and the host log
// map, or takes a caller's own segment and batch. Aligned table
// geometries charge table runs from the segment's TableLookups, as the
// fast path does. The verification
// suite (tests/gpu/kernel_audit_test.cpp) holds every model bit-equal to
// the interpreted engine's KernelMetrics, on class-synthesized and on
// random inputs.
//
// On top of the models sits the pre-launch audit (run_kernel_audit /
// tools/extnc_audit): geometry validation, shared/global footprint checks
// (OOB-freedom without running), barrier-divergence checks against the
// kernel's declared LaunchShape, and advisory bank-conflict / uncoalesced
// lints — a static superset of the dynamic Checker's advisories, since the
// model sees every group class, not only those a particular payload
// happens to exercise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "gpu/encode_scheme.h"
#include "simgpu/device_spec.h"
#include "simgpu/static_model.h"

namespace extnc::gpu {

// ------------------------------------------------------------------------
// Payload classes: structural byte functions over the kernel's accounting
// buffers (the log-domain segment/coefficients for preprocessed schemes,
// the natural-domain buffers for loop/tb0). A class fixes every
// data-dependent branch and shared-index pattern, which is what turns the
// access structure into a closed form while staying realizable: for every
// class there is a natural-domain input whose accounting image equals it
// (synthesize_segment / synthesize_batch), so the models remain testable
// against real runs.
enum class PayloadClass {
  // Every byte the same nonzero value: degree-1 table lookups everywhere,
  // all lanes active (the broadcast-friendly best case).
  kUniform,
  // Byte at word w has accounting value 1 + 64 * (w % 4): the four values
  // are 64 apart, so byte-table lookups of a half-warp land on four words
  // of one bank (degree 4) for every coefficient — the documented worst
  // repeating pattern — while tb5's parity-replicated layout still
  // resolves it conflict-free.
  kStride64,
  // kUniform with every third byte zero: exercises the sentinel skip
  // paths (predicated lanes, empty groups, texture fetch gaps).
  kSparse,
};

struct ModelAssumptions {
  PayloadClass payload_class = PayloadClass::kUniform;
  // Accounting-domain byte for the kUniform/kSparse payload and for every
  // coefficient row. Must be a value every scheme's accounting map can
  // produce: in [1, 254] (plain log covers [0, 254] with 0xff the zero
  // sentinel; shifted log covers [1, 255] with 0x00 the sentinel).
  std::uint8_t payload_value = 0x35;
  std::uint8_t coeff_value = 0x1d;
  // Every Nth coefficient row (i % N == N - 1) is zero, exercising the
  // per-word sentinel skip. 0 = all rows nonzero.
  std::size_t coeff_zero_every = 0;
  // Texture caches hold no table lines at launch (a freshly constructed
  // launcher). The tb4 miss closed form depends on this.
  bool cold_texture = true;
};

// The accounting-domain byte the class assigns to payload position `pos`
// (byte index within the accounting segment), or -1 for a zero natural
// byte (the scheme's sentinel). Exposed for tests.
int payload_class_byte(PayloadClass cls, const ModelAssumptions& assume,
                       std::size_t pos);
// The accounting-domain coefficient byte for row i (same for every coded
// block), or -1 for a zero row.
int coeff_class_byte(const ModelAssumptions& assume, std::size_t i);

// Natural-domain inputs whose accounting image under `scheme` equals the
// class: the segment's log (or shifted-log) transform reproduces the class
// bytes exactly, so an interpreted run over these inputs must produce the
// model's KernelMetrics bit for bit.
coding::Segment synthesize_segment(EncodeScheme scheme,
                                   const coding::Params& params,
                                   const ModelAssumptions& assume);
coding::CodedBatch synthesize_batch(EncodeScheme scheme,
                                    const coding::Params& params,
                                    std::size_t count,
                                    const ModelAssumptions& assume);

// A Vandermonde coefficient matrix over distinct nonzero points —
// invertible by construction, used by the inverter model and its
// verification test. Row r, column c = x_r^c with x_r = exp[r].
std::vector<std::uint8_t> synthesize_invertible_matrix(std::size_t n);

// ------------------------------------------------------------------------
// Model providers. All buffer addresses are modeled relative to 64-byte
// aligned bases (every device buffer is an AlignedBuffer), which fixes the
// coalescing segment phase without knowing runtime pointers.

// The encode kernel for `scheme` over `count` coded blocks: mul_loop for
// kLoopBased, exp_smem/exp_tex (table load + strided encode) otherwise.
simgpu::StaticKernelModel encode_kernel_model(
    const simgpu::DeviceSpec& spec, EncodeScheme scheme,
    const coding::Params& params, std::size_t count,
    const ModelAssumptions& assume = {});

// The same model over a caller's own natural-domain segment and batch
// (its coefficient rows; payloads are not read), as a freshly constructed
// encoder runs it: texture caches cold.
simgpu::StaticKernelModel encode_kernel_model(
    const simgpu::DeviceSpec& spec, EncodeScheme scheme,
    const coding::Segment& segment, const coding::CodedBatch& batch);

// One block's cooperative shared-table load of a table scheme other than
// tb4 (which binds the exp table as a texture) at `threads` threads. It is
// the same for every block of every launch, so the encoder's fast path
// charges this segment per block.
simgpu::SegmentModel table_load_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      std::size_t threads);

// Sec. 5.1.1 step (1): segment to log domain (payload-free: the kernel's
// access structure does not depend on byte values).
simgpu::StaticKernelModel preprocess_segment_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params);

// Sec. 5.1.1 step (2): coefficient matrix to log domain (payload-free).
simgpu::StaticKernelModel preprocess_coefficients_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    std::size_t count);

// Stage-1 Gauss-Jordan inverter over `segments` blocks, one per segment,
// for the given coefficient matrix (row-major n x n; all segments assumed
// to hold the same matrix). The provider simulates the elimination on its
// own n x 2n working copy — coefficient-matrix work, never payload work —
// because pivot positions and factor activity evolve with the matrix.
simgpu::StaticKernelModel invert_kernel_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    std::size_t segments, const std::vector<std::uint8_t>& matrix);

// The recoder's encode launch: gpu_recode wraps the encode kernel around a
// pseudo-segment of `received` blocks of n + k bytes each (coefficients
// prepended to payloads), producing `produced` recoded blocks. Forwards to
// encode_kernel_model over the aggregate geometry — which is exactly what
// exercises the straddling-group walker, since (n + k) / 4 is rarely a
// half-warp multiple.
simgpu::StaticKernelModel recode_kernel_model(
    const simgpu::DeviceSpec& spec, EncodeScheme scheme,
    const coding::Params& params, std::size_t received, std::size_t produced,
    const ModelAssumptions& assume = {});

// ------------------------------------------------------------------------
// Pre-launch audit.

enum class AuditKind {
  kGeometry,           // launch shape vs device limits (error)
  kSharedFootprint,    // scratchpad bytes vs shared_mem_per_sm (error)
  kGlobalFootprint,    // modeled extent vs registered buffer size (error)
  kBarrierDivergence,  // step width outside the declared LaunchShape (error)
  kBankConflictLint,   // max serialization degree >= threshold (advisory)
  kUncoalescedLint,    // max half-warp transactions >= threshold (advisory)
};

const char* audit_kind_name(AuditKind kind);

struct AuditFinding {
  AuditKind kind;
  bool advisory = false;
  std::string kernel;
  std::string detail;
};

struct AuditOptions {
  coding::Params params{.n = 16, .k = 256};
  std::size_t batch_blocks = 16;
  ModelAssumptions assume;
  // Advisory lint thresholds; defaults match the dynamic Checker's.
  std::uint64_t bank_conflict_threshold = 8;
  std::uint64_t uncoalesced_threshold = 16;
};

struct AuditCase {
  std::string kernel;
  simgpu::StaticKernelModel model;
  std::vector<AuditFinding> findings;
};

struct AuditReport {
  std::vector<AuditCase> cases;
  std::size_t error_count = 0;     // non-advisory findings
  std::size_t advisory_count = 0;  // lints

  bool clean() const { return error_count == 0; }
};

// Audit every shipped kernel's model against `spec`: the seven encode
// schemes, both preprocess kernels, the inverter and the recoder. Emits
// simgpu.audit.* metrics (cases, errors, advisories) via the process
// metrics registry.
AuditReport run_kernel_audit(const simgpu::DeviceSpec& spec,
                             const AuditOptions& options);

// Negative controls: re-run the audit with one deliberately broken model
// substituted, and expect the matching finding. Used by extnc_audit
// --seed-bug and the CI audit gate: a clean report here means the audit
// lost its teeth.
enum class AuditSeedBug {
  // The encode store step modeled without its tail guard: the last block
  // writes the strided range rounded up to a full thread count, past the
  // registered output buffer.
  kOobTail,
  // The inverter's pivot scan modeled at width 2 ("scan lane plus its
  // neighbor"), which is outside the kernel's declared LaunchShape {1}.
  kDivergentBarrier,
  // The tb5 table load modeled lane-blocked instead of lane-interleaved:
  // each lane sweeps a contiguous 16-word chunk, so a half-warp's stores
  // stride 16 words apart — 16 distinct words in one bank, degree 16.
  kConflictRegression,
};

const char* audit_seed_bug_name(AuditSeedBug bug);

// Returns the audit report with the seeded defect present; callers assert
// it is NOT clean (or that the expected advisory fired).
AuditReport run_seeded_audit(const simgpu::DeviceSpec& spec,
                             const AuditOptions& options, AuditSeedBug bug);

}  // namespace extnc::gpu
