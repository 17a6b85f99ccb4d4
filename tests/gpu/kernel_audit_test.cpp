// Verification contract for the static kernel models: every model's
// totals() must equal, bit for bit, the KernelMetrics the interpreted
// engine produces for a run over inputs synthesized from the same payload
// class — across schemes, devices, geometries (aligned and straddling) and
// class variants. Plus the audit itself: clean reports for the shipped
// kernels on both paper devices, and the seeded negative controls each
// caught with the right finding kind.
#include "gpu/kernel_audit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coding/batch.h"
#include "coding/block_decoder.h"
#include "coding/segment.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "simgpu/exec_engine.h"
#include "simgpu/profiler.h"
#include "simgpu/static_model.h"
#include "util/metrics_registry.h"
#include "util/rng.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using simgpu::KernelMetrics;

// The models describe the *interpreted* engine; pin the fast path off so a
// fast-path bug cannot mask a model bug (their equivalence is enforced
// separately by engine_equivalence_test).
class ScopedInterpreted {
 public:
  ScopedInterpreted()
      : saved_fast_(simgpu::fast_path_enabled()),
        saved_engine_(simgpu::default_engine()) {
    simgpu::set_fast_path_enabled(false);
    simgpu::set_default_engine(simgpu::ExecEngine::kSerial);
  }
  ~ScopedInterpreted() {
    simgpu::set_fast_path_enabled(saved_fast_);
    simgpu::set_default_engine(saved_engine_);
  }

 private:
  bool saved_fast_;
  simgpu::ExecEngine saved_engine_;
};

void expect_metrics_equal(const KernelMetrics& model,
                          const KernelMetrics& dynamic,
                          const std::string& what) {
  EXPECT_EQ(model.alu_deciops, dynamic.alu_deciops) << what;
  EXPECT_EQ(model.global_load_bytes, dynamic.global_load_bytes) << what;
  EXPECT_EQ(model.global_store_bytes, dynamic.global_store_bytes) << what;
  EXPECT_EQ(model.global_transactions, dynamic.global_transactions) << what;
  EXPECT_EQ(model.shared_accesses, dynamic.shared_accesses) << what;
  EXPECT_EQ(model.shared_access_events, dynamic.shared_access_events) << what;
  EXPECT_EQ(model.shared_serialized_cycles, dynamic.shared_serialized_cycles)
      << what;
  EXPECT_EQ(model.texture_fetches, dynamic.texture_fetches) << what;
  EXPECT_EQ(model.texture_misses, dynamic.texture_misses) << what;
  EXPECT_EQ(model.atomic_ops, dynamic.atomic_ops) << what;
  EXPECT_EQ(model.barriers, dynamic.barriers) << what;
  EXPECT_EQ(model.kernel_launches, dynamic.kernel_launches) << what;
  EXPECT_EQ(model.blocks, dynamic.blocks) << what;
  EXPECT_EQ(model.threads_per_block, dynamic.threads_per_block) << what;
}

constexpr EncodeScheme kAllSchemes[] = {
    EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
    EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
    EncodeScheme::kTable5,
};

// Run one interpreted encode over class-synthesized inputs on a fresh
// encoder (fresh launcher = cold texture caches, the tb4 assumption) and
// return the encode launch's metrics.
KernelMetrics interpreted_encode_metrics(const simgpu::DeviceSpec& spec,
                                         EncodeScheme scheme,
                                         const Params& params,
                                         std::size_t count,
                                         const ModelAssumptions& assume) {
  ScopedInterpreted pin;
  const Segment segment = synthesize_segment(scheme, params, assume);
  CodedBatch batch = synthesize_batch(scheme, params, count, assume);
  GpuEncoder encoder(spec, segment, scheme);
  encoder.encode_into(batch);
  return encoder.encode_metrics();
}

void check_encode_model(const simgpu::DeviceSpec& spec, EncodeScheme scheme,
                        const Params& params, std::size_t count,
                        const ModelAssumptions& assume,
                        const std::string& what) {
  const simgpu::StaticKernelModel model =
      encode_kernel_model(spec, scheme, params, count, assume);
  expect_metrics_equal(
      model.totals(),
      interpreted_encode_metrics(spec, scheme, params, count, assume), what);
}

TEST(KernelAuditModel, EncodeAllSchemesAllClasses) {
  const Params params{.n = 16, .k = 256};
  for (EncodeScheme scheme : kAllSchemes) {
    for (PayloadClass cls :
         {PayloadClass::kUniform, PayloadClass::kStride64,
          PayloadClass::kSparse}) {
      ModelAssumptions assume;
      assume.payload_class = cls;
      check_encode_model(simgpu::gtx280(), scheme, params, 16, assume,
                         std::string(scheme_name(scheme)) + "/class=" +
                             std::to_string(static_cast<int>(cls)));
    }
  }
}

TEST(KernelAuditModel, EncodeZeroCoefficientRows) {
  const Params params{.n = 16, .k = 256};
  for (EncodeScheme scheme : kAllSchemes) {
    ModelAssumptions assume;
    assume.payload_class = PayloadClass::kSparse;
    assume.coeff_zero_every = 3;
    check_encode_model(simgpu::gtx280(), scheme, params, 16, assume,
                       std::string(scheme_name(scheme)) + "/zero-rows");
  }
}

// Straddling geometry: 50 words per coded block is not a half-warp
// multiple and 7 blocks leave a ragged thread tail, so every group the
// model walks crosses coded-block boundaries exactly like the kernel's.
TEST(KernelAuditModel, EncodeStraddlingGeometry) {
  const Params params{.n = 12, .k = 200};
  for (EncodeScheme scheme : kAllSchemes) {
    for (PayloadClass cls :
         {PayloadClass::kUniform, PayloadClass::kStride64}) {
      ModelAssumptions assume;
      assume.payload_class = cls;
      check_encode_model(simgpu::gtx280(), scheme, params, 7, assume,
                         std::string(scheme_name(scheme)) + "/straddle");
    }
  }
}

TEST(KernelAuditModel, EncodeSecondDevice) {
  const Params params{.n = 16, .k = 256};
  for (EncodeScheme scheme :
       {EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable4,
        EncodeScheme::kTable5}) {
    ModelAssumptions assume;
    assume.payload_class = PayloadClass::kStride64;
    check_encode_model(simgpu::geforce_8800gt(), scheme, params, 16, assume,
                       std::string(scheme_name(scheme)) + "/8800gt");
  }
}

TEST(KernelAuditModel, PreprocessKernels) {
  ScopedInterpreted pin;
  const Params params{.n = 16, .k = 256};
  const ModelAssumptions assume;
  const Segment segment =
      synthesize_segment(EncodeScheme::kTable5, params, assume);
  CodedBatch batch =
      synthesize_batch(EncodeScheme::kTable5, params, 16, assume);
  simgpu::Profiler profiler;
  GpuEncoder encoder(simgpu::gtx280(), segment, EncodeScheme::kTable5,
                     &profiler);
  encoder.encode_into(batch);
  const KernelMetrics* segment_launch = nullptr;
  const KernelMetrics* coeff_launch = nullptr;
  for (const simgpu::LaunchProfile& launch : profiler.launches()) {
    if (launch.label == "encode/tb5/preprocess_segment") {
      segment_launch = &launch.metrics;
    }
    if (launch.label == "encode/tb5/preprocess_coeffs") {
      coeff_launch = &launch.metrics;
    }
  }
  ASSERT_NE(segment_launch, nullptr);
  ASSERT_NE(coeff_launch, nullptr);
  expect_metrics_equal(
      preprocess_segment_model(simgpu::gtx280(), params).totals(),
      *segment_launch, "preprocess_segment");
  expect_metrics_equal(
      preprocess_coefficients_model(simgpu::gtx280(), params, 16).totals(),
      *coeff_launch, "preprocess_coeffs");
}

TEST(KernelAuditModel, MultiSegmentInverter) {
  ScopedInterpreted pin;
  const Params params{.n = 16, .k = 128};
  const std::vector<std::uint8_t> matrix =
      synthesize_invertible_matrix(params.n);
  // Three batches holding the same Vandermonde coefficient matrix; the
  // payload bytes are irrelevant to stage 1 (pure coefficient work).
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 3; ++s) {
    CodedBatch batch(params, params.n);
    for (std::size_t r = 0; r < params.n; ++r) {
      std::copy(matrix.begin() + r * params.n,
                matrix.begin() + (r + 1) * params.n,
                batch.coefficients(r).begin());
      std::fill(batch.payload(r).begin(), batch.payload(r).end(),
                static_cast<std::uint8_t>(r + 1));
    }
    batches.push_back(std::move(batch));
  }
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  decoder.decode_all(batches);
  expect_metrics_equal(
      invert_kernel_model(simgpu::gtx280(), params, 3, matrix).totals(),
      decoder.stage1_metrics(), "invert");
}

// The recode model is the encode model over the aggregate pseudo-segment
// geometry ((n + k)-byte rows). Verify it against an actual encoder run at
// that geometry — exactly the launch gpu_recode performs.
TEST(KernelAuditModel, RecoderAggregateGeometry) {
  const Params params{.n = 16, .k = 256};
  const std::size_t received = 16;
  const std::size_t produced = 24;
  const Params aggregate{.n = received, .k = params.n + params.k};
  ModelAssumptions assume;
  assume.payload_class = PayloadClass::kStride64;
  const simgpu::StaticKernelModel model = recode_kernel_model(
      simgpu::gtx280(), EncodeScheme::kTable5, params, received, produced,
      assume);
  expect_metrics_equal(model.totals(),
                       interpreted_encode_metrics(
                           simgpu::gtx280(), EncodeScheme::kTable5, aggregate,
                           produced, assume),
                       "recode");
}

TEST(KernelAuditClasses, PayloadAndCoefficientClassBytes) {
  ModelAssumptions assume;
  EXPECT_EQ(payload_class_byte(PayloadClass::kUniform, assume, 5), 0x35);
  EXPECT_EQ(payload_class_byte(PayloadClass::kStride64, assume, 0), 1);
  EXPECT_EQ(payload_class_byte(PayloadClass::kStride64, assume, 4), 1 + 64);
  EXPECT_EQ(payload_class_byte(PayloadClass::kSparse, assume, 0), -1);
  EXPECT_EQ(payload_class_byte(PayloadClass::kSparse, assume, 1), 0x35);
  EXPECT_EQ(coeff_class_byte(assume, 3), 0x1d);
  assume.coeff_zero_every = 3;
  EXPECT_EQ(coeff_class_byte(assume, 2), -1);
  EXPECT_EQ(coeff_class_byte(assume, 3), 0x1d);
}

TEST(KernelAudit, CleanOnBothPaperDevices) {
  for (const simgpu::DeviceSpec& spec :
       {simgpu::gtx280(), simgpu::geforce_8800gt()}) {
    metrics::Registry::instance().reset();
    const AuditReport report = run_kernel_audit(spec, AuditOptions{});
    EXPECT_TRUE(report.clean()) << spec.name;
    EXPECT_EQ(report.cases.size(), 11u) << spec.name;  // 7 + 2 + invert + recode
    for (const AuditCase& c : report.cases) {
      for (const AuditFinding& f : c.findings) {
        EXPECT_TRUE(f.advisory)
            << spec.name << " " << c.kernel << ": " << f.detail;
      }
    }
    EXPECT_EQ(metrics::Registry::instance().value("simgpu.audit.cases"),
              static_cast<double>(report.cases.size()))
        << spec.name;
    EXPECT_EQ(metrics::Registry::instance().value("simgpu.audit.errors"), 0.0)
        << spec.name;
  }
}

TEST(KernelAudit, SeededOobTailCaught) {
  const AuditReport report =
      run_seeded_audit(simgpu::gtx280(), AuditOptions{}, AuditSeedBug::kOobTail);
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const AuditCase& c : report.cases) {
    for (const AuditFinding& f : c.findings) {
      found |= f.kind == AuditKind::kGlobalFootprint && !f.advisory;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KernelAudit, SeededDivergentBarrierCaught) {
  const AuditReport report = run_seeded_audit(
      simgpu::gtx280(), AuditOptions{}, AuditSeedBug::kDivergentBarrier);
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const AuditCase& c : report.cases) {
    for (const AuditFinding& f : c.findings) {
      found |= f.kind == AuditKind::kBarrierDivergence && !f.advisory;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KernelAudit, SeededConflictRegressionCaught) {
  const AuditReport report = run_seeded_audit(
      simgpu::gtx280(), AuditOptions{}, AuditSeedBug::kConflictRegression);
  // A lane-blocked tb5 table load serializes its stores 16-deep: the
  // bank-conflict lint (an advisory) must fire at full degree.
  bool found = false;
  for (const AuditCase& c : report.cases) {
    EXPECT_EQ(c.model.max_conflict_degree(), 16u);
    for (const AuditFinding& f : c.findings) {
      found |= f.kind == AuditKind::kBankConflictLint;
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------------------
// The models over a caller's own data: a random segment and random
// coefficient rows (not a payload class) must give exactly the metrics a
// real encoder launch charges, with the fast path on and off, for every
// scheme on both devices.

// Pins the serial engine with the fast path on or off.
class ScopedPath {
 public:
  explicit ScopedPath(bool fast)
      : saved_fast_(simgpu::fast_path_enabled()),
        saved_engine_(simgpu::default_engine()) {
    simgpu::set_fast_path_enabled(fast);
    simgpu::set_default_engine(simgpu::ExecEngine::kSerial);
  }
  ~ScopedPath() {
    simgpu::set_fast_path_enabled(saved_fast_);
    simgpu::set_default_engine(saved_engine_);
  }

 private:
  bool saved_fast_;
  simgpu::ExecEngine saved_engine_;
};

void check_encode_over_data(const Params& params, std::size_t count,
                            std::uint64_t seed, const std::string& shape) {
  for (const simgpu::DeviceSpec& spec :
       {simgpu::gtx280(), simgpu::geforce_8800gt()}) {
    Rng rng(seed);
    const Segment segment = Segment::random(params, rng);
    CodedBatch batch(params, count);
    for (std::size_t j = 0; j < count; ++j) {
      // About one coefficient in five is zero: the sentinel skips.
      for (auto& c : batch.coefficients(j)) {
        c = rng.next_below(5) == 0 ? 0 : rng.next_nonzero_byte();
      }
    }
    for (EncodeScheme scheme : kAllSchemes) {
      const KernelMetrics model =
          encode_kernel_model(spec, scheme, segment, batch).totals();
      for (bool fast : {true, false}) {
        ScopedPath path(fast);
        CodedBatch run = batch;
        GpuEncoder encoder(spec, segment, scheme);
        encoder.encode_into(run);
        expect_metrics_equal(model, encoder.encode_metrics(),
                             std::string(spec.name) + "/" + shape + "/" +
                                 scheme_name(scheme) +
                                 (fast ? "/fast" : "/interpreted"));
      }
    }
  }
}

TEST(KernelAuditModel, EncodeOverCallerDataAligned) {
  check_encode_over_data({.n = 16, .k = 256}, 16, 41, "aligned");
}

TEST(KernelAuditModel, EncodeOverCallerDataStraddling) {
  check_encode_over_data({.n = 12, .k = 200}, 7, 42, "straddle");
}

// The shape gpu_model's encode calibration runs the model at.
TEST(KernelAuditModel, EncodeOverCallerDataCalibrationShape) {
  check_encode_over_data({.n = 128, .k = 512}, 96, 43, "calibration");
}

TEST(KernelAuditModel, InverterOverCallerData) {
  const Params params{.n = 16, .k = 64};
  Rng rng(44);
  // A random batch of n independent coefficient rows, held by every
  // segment (the model's one-matrix-per-launch contract).
  CodedBatch batch(params, params.n);
  coding::BlockDecoder probe(params);
  std::vector<std::uint8_t> row(params.n);
  std::vector<std::uint8_t> payload(params.k);
  for (std::size_t stored = 0; stored < params.n;) {
    for (auto& c : row) c = rng.next_byte();
    for (auto& b : payload) b = rng.next_byte();
    if (!probe.add(row, payload)) continue;
    std::copy(row.begin(), row.end(), batch.coefficients(stored).begin());
    std::copy(payload.begin(), payload.end(), batch.payload(stored).begin());
    ++stored;
  }
  const std::uint8_t* rows = batch.coefficients_data();
  const std::vector<std::uint8_t> matrix(rows, rows + params.n * params.n);
  for (const simgpu::DeviceSpec& spec :
       {simgpu::gtx280(), simgpu::geforce_8800gt()}) {
    const KernelMetrics model =
        invert_kernel_model(spec, params, 3, matrix).totals();
    for (bool fast : {true, false}) {
      ScopedPath path(fast);
      GpuMultiSegmentDecoder decoder(spec, params);
      decoder.decode_all({batch, batch, batch});
      expect_metrics_equal(model, decoder.stage1_metrics(),
                           std::string(spec.name) + "/invert" +
                               (fast ? "/fast" : "/interpreted"));
    }
  }
}

}  // namespace
}  // namespace extnc::gpu
