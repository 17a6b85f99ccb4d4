#include "gpu/kernel_audit.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "gf256/gf.h"
#include "gpu/kernel_walks.h"
#include "gpu/table_layout.h"
#include "util/assert.h"
#include "util/metrics_registry.h"

namespace extnc::gpu {

using simgpu::KernelMetrics;
using simgpu::SegmentModel;
using simgpu::StaticKernelModel;

namespace {

// ------------------------------------------------------------------------
// Payload classes.

// The uniform value must survive every scheme's accounting map; assert the
// documented [1, 254] envelope once per entry point.
void check_assumptions(const ModelAssumptions& a) {
  EXTNC_CHECK(a.payload_value >= 1 && a.payload_value <= 254);
  EXTNC_CHECK(a.coeff_value >= 1 && a.coeff_value <= 254);
}

}  // namespace

int payload_class_byte(PayloadClass cls, const ModelAssumptions& assume,
                       std::size_t pos) {
  switch (cls) {
    case PayloadClass::kUniform:
      return assume.payload_value;
    case PayloadClass::kStride64:
      // 1 + 64 * (word % 4): all four values in [1, 193], 64 apart.
      return 1 + 64 * static_cast<int>((pos / 4) % 4);
    case PayloadClass::kSparse:
      return pos % 3 == 0 ? -1 : assume.payload_value;
  }
  return -1;
}

int coeff_class_byte(const ModelAssumptions& assume, std::size_t i) {
  if (assume.coeff_zero_every != 0 &&
      i % assume.coeff_zero_every == assume.coeff_zero_every - 1) {
    return -1;
  }
  return assume.coeff_value;
}

namespace {

// Natural-domain byte whose accounting image under `scheme` is the class
// byte `v` (-1 = zero). Inverts the per-scheme preprocessing map.
std::uint8_t natural_from_class(EncodeScheme scheme, int v) {
  if (v < 0) return 0;
  const gf256::Tables& t = gf256::tables();
  if (!scheme_is_preprocessed(scheme)) {
    // loop / tb0: the kernel reads natural bytes directly.
    return static_cast<std::uint8_t>(v);
  }
  if (scheme_uses_shifted_log(scheme)) {
    // log_shifted[x] == v  =>  x == exp[v - 1]  (v in [1, 255]).
    EXTNC_CHECK(v >= 1);
    return t.exp[v - 1];
  }
  // log[x] == v  =>  x == exp[v]  (v in [0, 254]).
  EXTNC_CHECK(v <= 254);
  return t.exp[v];
}

// Multiply every counter of a one-block segment model by the block count.
void scale_segment(SegmentModel& seg, std::uint64_t times) {
  KernelMetrics& m = seg.counters;
  m.alu_deciops *= times;
  m.global_load_bytes *= times;
  m.global_store_bytes *= times;
  m.global_transactions *= times;
  m.shared_accesses *= times;
  m.shared_access_events *= times;
  m.shared_serialized_cycles *= times;
  m.texture_fetches *= times;
  m.texture_misses *= times;
  m.atomic_ops *= times;
  m.barriers *= times;
  for (auto& d : seg.degree_events) d *= times;
}

// One block's cooperative table load. `lane_blocked` is the seeded
// conflict-regression variant of tb5's load, a model-only edit of the
// walk: each lane sweeps a contiguous chunk instead of interleaving, so
// every store group piles up in one bank.
ModelSink table_load_sink(const simgpu::DeviceSpec& spec, EncodeScheme scheme,
                          std::size_t threads, bool lane_blocked) {
  ModelSink load(spec, "table_load");
  const auto half = static_cast<std::size_t>(spec.half_warp);
  if (!lane_blocked) {
    table_load_walk(load, scheme, threads, half, 0, 0);
    return load;
  }
  EXTNC_CHECK(scheme == EncodeScheme::kTable5);
  const std::size_t table_words = kExpTableEntries * kReplicatedTables;
  const std::size_t chunk = table_words / threads;
  std::array<std::uintptr_t, 16> addrs{};
  std::array<std::uintptr_t, 16> words{};
  for (std::size_t it = 0; it < chunk; ++it) {
    for (std::size_t l0 = 0; l0 < threads; l0 += half) {
      const std::size_t cnt = std::min(half, threads - l0);
      for (std::size_t l = 0; l < cnt; ++l) {
        words[l] = (l0 + l) * chunk + it;
        addrs[l] = words[l] * 4;
      }
      load.global_group(Region::kExpTable, addrs.data(), cnt, 4, cnt * 4, 0);
      load.shared_group(words.data(), cnt);
    }
  }
  load.barrier();
  return load;
}

// The kernel's accounting-domain view of natural bytes: the log (or
// shifted-log) image for preprocessed schemes, the bytes themselves for
// loop and tb0, which read natural bytes.
std::vector<std::uint8_t> accounting_bytes(EncodeScheme scheme,
                                           const std::uint8_t* natural,
                                           std::size_t size) {
  std::vector<std::uint8_t> out(natural, natural + size);
  if (scheme_is_preprocessed(scheme)) {
    const gf256::Tables& t = gf256::tables();
    const std::uint8_t* log =
        scheme_uses_shifted_log(scheme) ? t.log_shifted : t.log;
    for (std::uint8_t& b : out) b = log[b];
  }
  return out;
}

}  // namespace

coding::Segment synthesize_segment(EncodeScheme scheme,
                                   const coding::Params& params,
                                   const ModelAssumptions& assume) {
  check_assumptions(assume);
  coding::Segment segment(params);
  std::uint8_t* data = segment.data();
  const std::size_t bytes = params.segment_bytes();
  for (std::size_t pos = 0; pos < bytes; ++pos) {
    data[pos] = natural_from_class(
        scheme, payload_class_byte(assume.payload_class, assume, pos));
  }
  return segment;
}

coding::CodedBatch synthesize_batch(EncodeScheme scheme,
                                    const coding::Params& params,
                                    std::size_t count,
                                    const ModelAssumptions& assume) {
  check_assumptions(assume);
  coding::CodedBatch batch(params, count);
  for (std::size_t j = 0; j < count; ++j) {
    auto row = batch.coefficients(j);
    for (std::size_t i = 0; i < params.n; ++i) {
      row[i] = natural_from_class(scheme, coeff_class_byte(assume, i));
    }
  }
  return batch;
}

std::vector<std::uint8_t> synthesize_invertible_matrix(std::size_t n) {
  EXTNC_CHECK(n >= 1 && n <= 255);
  const gf256::Tables& t = gf256::tables();
  std::vector<std::uint8_t> m(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint8_t x = t.exp[r];  // distinct nonzero points
    std::uint8_t power = 1;
    for (std::size_t c = 0; c < n; ++c) {
      m[r * n + c] = power;
      power = gf256::mul(power, x);
    }
  }
  return m;
}

// ------------------------------------------------------------------------
// Encode model.

simgpu::SegmentModel table_load_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      std::size_t threads) {
  return table_load_sink(spec, scheme, threads, false).finish(threads);
}

namespace {

StaticKernelModel encode_model(const simgpu::DeviceSpec& spec,
                               EncodeScheme scheme,
                               const coding::Segment& segment,
                               const coding::CodedBatch& batch,
                               bool cold_texture, bool lane_blocked_load) {
  const coding::Params& p = segment.params();
  const std::size_t count = batch.count();
  EXTNC_CHECK(batch.params() == p);
  EXTNC_CHECK(p.k % 4 == 0);
  EXTNC_CHECK(count >= 1);
  const bool loop = scheme == EncodeScheme::kLoopBased;
  const bool tb0 = scheme == EncodeScheme::kTable0;
  const bool tb4 = scheme == EncodeScheme::kTable4;
  const bool tb5 = scheme == EncodeScheme::kTable5;
  const std::size_t total_words = count * (p.k / 4);
  // The launch geometry of GpuEncoder::run_loop_based / run_table_based.
  const std::size_t threads =
      loop ? std::min<std::size_t>(256, total_words) : 256;
  const std::size_t blocks =
      loop ? (total_words + threads - 1) / threads
           : std::min<std::size_t>(static_cast<std::size_t>(spec.num_sms),
                                   (total_words + threads - 1) / threads);

  StaticKernelModel model;
  model.kernel = std::string("encode/") + scheme_label(scheme) + "/" +
                 (loop ? "mul_loop" : tb4 ? "exp_tex" : "exp_smem");
  model.blocks = blocks;
  model.threads_per_block = threads;
  model.shared_bytes = loop || tb4 ? 0
                       : tb5       ? table_shared_bytes_tb5()
                                   : table_shared_bytes_byte(tb0);

  std::size_t exp_extent = 0;
  std::size_t log_extent = 0;
  if (!loop && !tb4) {
    ModelSink load = table_load_sink(spec, scheme, threads, lane_blocked_load);
    exp_extent = load.extent(Region::kExpTable);
    log_extent = load.extent(Region::kLogTable);
    model.segments.push_back(load.finish(threads));
    scale_segment(model.segments.back(), blocks);
  }

  const std::vector<std::uint8_t> src =
      accounting_bytes(scheme, segment.data(), p.segment_bytes());
  const std::vector<std::uint8_t> coeffs =
      accounting_bytes(scheme, batch.coefficients_data(), count * p.n);
  EncodeWalk walk{.scheme = scheme,
                  .n = p.n,
                  .k = p.k,
                  .total_words = total_words,
                  .threads = threads,
                  .stride = blocks * threads,
                  .half = static_cast<std::size_t>(spec.half_warp),
                  .src = src.data(),
                  .coeffs = coeffs.data()};
  TableLookups lookups;
  if (table_lookups_apply(scheme, p.k, threads, walk.half)) {
    lookups = table_lookups(spec, scheme, src.data(), p.n, p.k);
    walk.lookups = &lookups;
  }
  ModelSink enc(spec, "encode");
  if (tb4) enc.bind_texture(walk.tex_addr, kExpTableEntries);
  for (std::size_t b = 0; b < blocks; ++b) {
    enc.set_block(b);
    encode_block_walk(enc, walk, b);
  }
  exp_extent = std::max(exp_extent, enc.extent(Region::kExpTable));
  model.segments.push_back(enc.finish(threads, cold_texture));

  // Registered buffer sizes come from the geometry; needed extents from
  // the walk.
  const bool preprocessed = scheme_is_preprocessed(scheme);
  model.footprint.push_back({preprocessed ? "log_segment" : "segment",
                             enc.extent(Region::kSource), p.segment_bytes(),
                             false});
  model.footprint.push_back(
      {preprocessed ? "log_coefficients" : "batch.coefficients",
       enc.extent(Region::kCoefficients), count * p.n, false});
  model.footprint.push_back({"batch.payloads", enc.extent(Region::kOutput),
                             count * p.k, true});
  if (!loop) {
    if (tb5) {
      model.footprint.push_back({"exp_table_words", exp_extent,
                                 kExpTableEntries * kReplicatedTables * 4,
                                 false});
    } else {
      model.footprint.push_back(
          {"exp_table", exp_extent, kExpTableEntries, false});
    }
    if (tb0) {
      model.footprint.push_back({"log_table", log_extent, 256, false});
    }
  }
  return model;
}

StaticKernelModel class_encode_model(const simgpu::DeviceSpec& spec,
                                     EncodeScheme scheme,
                                     const coding::Params& params,
                                     std::size_t count,
                                     const ModelAssumptions& assume,
                                     bool lane_blocked_load) {
  return encode_model(spec, scheme,
                      synthesize_segment(scheme, params, assume),
                      synthesize_batch(scheme, params, count, assume),
                      assume.cold_texture, lane_blocked_load);
}

}  // namespace

StaticKernelModel encode_kernel_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      const coding::Params& params,
                                      std::size_t count,
                                      const ModelAssumptions& assume) {
  return class_encode_model(spec, scheme, params, count, assume, false);
}

StaticKernelModel encode_kernel_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      const coding::Segment& segment,
                                      const coding::CodedBatch& batch) {
  return encode_model(spec, scheme, segment, batch, true, false);
}

StaticKernelModel recode_kernel_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      const coding::Params& params,
                                      std::size_t received,
                                      std::size_t produced,
                                      const ModelAssumptions& assume) {
  EXTNC_CHECK((params.n + params.k) % 4 == 0);
  const coding::Params aggregate{.n = received, .k = params.n + params.k};
  StaticKernelModel model =
      encode_kernel_model(spec, scheme, aggregate, produced, assume);
  model.kernel = std::string("recode/") + scheme_label(scheme) + "/" +
                 (scheme == EncodeScheme::kLoopBased ? "mul_loop"
                  : scheme == EncodeScheme::kTable4 ? "exp_tex"
                                                    : "exp_smem");
  return model;
}

// ------------------------------------------------------------------------
// Preprocess models (payload-free: the access structure is a pure function
// of the element count).

namespace {

StaticKernelModel preprocess_model(const simgpu::DeviceSpec& spec,
                                   const char* kernel, std::size_t elements,
                                   std::size_t element_bytes,
                                   const char* src_name,
                                   const char* dst_name) {
  const std::size_t threads = 256;
  const std::size_t blocks = std::min<std::size_t>(
      static_cast<std::size_t>(spec.num_sms),
      (elements + threads - 1) / threads);

  StaticKernelModel model;
  model.kernel = kernel;
  model.blocks = blocks;
  model.threads_per_block = threads;
  ModelSink seg(spec, "transform");
  for (std::size_t b = 0; b < blocks; ++b) {
    preprocess_block_walk(seg, b, elements, element_bytes, threads,
                          blocks * threads,
                          static_cast<std::size_t>(spec.half_warp), 0, 0);
  }
  const std::size_t bytes = elements * element_bytes;
  model.footprint.push_back(
      {src_name, seg.extent(Region::kSource), bytes, false});
  model.footprint.push_back(
      {dst_name, seg.extent(Region::kOutput), bytes, true});
  model.segments.push_back(seg.finish(threads));
  return model;
}

}  // namespace

StaticKernelModel preprocess_segment_model(const simgpu::DeviceSpec& spec,
                                           const coding::Params& params) {
  EXTNC_CHECK(params.k % 4 == 0);
  return preprocess_model(spec, "encode/preprocess_segment",
                          params.segment_bytes() / 4, 4, "segment",
                          "log_segment");
}

StaticKernelModel preprocess_coefficients_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    std::size_t count) {
  return preprocess_model(spec, "encode/preprocess_coeffs",
                          count * params.n, 1, "batch.coefficients",
                          "log_coefficients");
}

// ------------------------------------------------------------------------
// Inverter model: the inverter's walk over the model's own n x 2n working
// copy of the coefficient matrix (matrix work, never payload work), one
// block, multiplied out over the segments.

StaticKernelModel invert_kernel_model(const simgpu::DeviceSpec& spec,
                                      const coding::Params& params,
                                      std::size_t segments,
                                      const std::vector<std::uint8_t>& matrix) {
  const std::size_t n = params.n;
  EXTNC_CHECK(segments >= 1);
  EXTNC_CHECK(matrix.size() == n * n);
  const std::size_t row_bytes = 2 * n;
  const std::size_t threads = std::min<std::size_t>(
      n * (row_bytes / 4),
      static_cast<std::size_t>(spec.max_threads_per_block));

  // Augmented working copy [C | I], as invert_stage builds it.
  std::vector<std::uint8_t> aug(n * row_bytes, 0);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(matrix.begin() + r * n, matrix.begin() + (r + 1) * n,
              aug.begin() + r * row_bytes);
    aug[r * row_bytes + n + r] = 1;
  }
  ModelSink pivot(spec, "pivot_search");
  ModelSink rows(spec, "row_ops");
  invert_block_walk(pivot, rows, aug.data(), n, threads,
                    static_cast<std::size_t>(spec.half_warp), 0);

  StaticKernelModel model;
  model.kernel = "decode/multiseg/invert";
  model.blocks = segments;
  model.threads_per_block = threads;
  model.shared_bytes = n;  // staged elimination factors
  model.footprint.push_back(
      {"invert_work", rows.extent(Region::kWork), n * row_bytes, true});
  model.segments.push_back(pivot.finish(1));
  model.segments.push_back(rows.finish(threads));
  for (SegmentModel& seg : model.segments) scale_segment(seg, segments);
  return model;
}

// ------------------------------------------------------------------------
// Audit.

const char* audit_kind_name(AuditKind kind) {
  switch (kind) {
    case AuditKind::kGeometry: return "geometry";
    case AuditKind::kSharedFootprint: return "shared-footprint";
    case AuditKind::kGlobalFootprint: return "global-footprint";
    case AuditKind::kBarrierDivergence: return "barrier-divergence";
    case AuditKind::kBankConflictLint: return "bank-conflict-lint";
    case AuditKind::kUncoalescedLint: return "uncoalesced-lint";
  }
  return "?";
}

const char* audit_seed_bug_name(AuditSeedBug bug) {
  switch (bug) {
    case AuditSeedBug::kOobTail: return "oob-tail";
    case AuditSeedBug::kDivergentBarrier: return "divergent-barrier";
    case AuditSeedBug::kConflictRegression: return "conflict-regression";
  }
  return "?";
}

namespace {

void audit_model(const simgpu::DeviceSpec& spec, const AuditOptions& options,
                 const StaticKernelModel& model,
                 const std::vector<std::size_t>& declared_partial,
                 std::vector<AuditFinding>& findings) {
  auto add = [&](AuditKind kind, bool advisory, std::string detail) {
    findings.push_back(
        {kind, advisory, model.kernel, std::move(detail)});
  };
  std::ostringstream os;
  if (model.blocks < 1 || model.threads_per_block < 1 ||
      model.threads_per_block >
          static_cast<std::size_t>(spec.max_threads_per_block)) {
    os << model.blocks << " blocks x " << model.threads_per_block
       << " threads vs max " << spec.max_threads_per_block;
    add(AuditKind::kGeometry, false, os.str());
  }
  if (model.shared_bytes > spec.shared_mem_per_sm) {
    os.str("");
    os << model.shared_bytes << " shared bytes vs " << spec.shared_mem_per_sm
       << " per SM";
    add(AuditKind::kSharedFootprint, false, os.str());
  }
  for (const simgpu::FootprintRegion& region : model.footprint) {
    if (region.bytes_needed > region.bytes_registered) {
      os.str("");
      os << region.name << (region.written ? " written" : " read") << " to "
         << region.bytes_needed << " bytes, registered "
         << region.bytes_registered;
      add(AuditKind::kGlobalFootprint, false, os.str());
    }
  }
  for (const SegmentModel& seg : model.segments) {
    const bool full = seg.step_width == model.threads_per_block;
    const bool declared =
        std::find(declared_partial.begin(), declared_partial.end(),
                  seg.step_width) != declared_partial.end();
    if (!full && !declared) {
      os.str("");
      os << "segment '" << seg.name << "' steps " << seg.step_width
         << " lanes, declared shape allows full steps";
      for (const std::size_t c : declared_partial) os << " or " << c;
      add(AuditKind::kBarrierDivergence, false, os.str());
    }
    if (seg.max_conflict_degree() >= options.bank_conflict_threshold) {
      os.str("");
      os << "segment '" << seg.name << "' worst bank serialization degree "
         << seg.max_conflict_degree();
      add(AuditKind::kBankConflictLint, true, os.str());
    }
    if (seg.max_group_transactions >= options.uncoalesced_threshold) {
      os.str("");
      os << "segment '" << seg.name << "' worst half-warp spans "
         << seg.max_group_transactions << " transactions";
      add(AuditKind::kUncoalescedLint, true, os.str());
    }
  }
}

AuditReport finish_report(std::vector<AuditCase> cases) {
  AuditReport report;
  report.cases = std::move(cases);
  for (const AuditCase& c : report.cases) {
    metrics::count("simgpu.audit.cases");
    for (const AuditFinding& f : c.findings) {
      if (f.advisory) {
        ++report.advisory_count;
        metrics::count("simgpu.audit.advisories");
      } else {
        ++report.error_count;
        metrics::count("simgpu.audit.errors");
      }
    }
  }
  return report;
}

std::vector<AuditCase> build_clean_cases(const simgpu::DeviceSpec& spec,
                                         const AuditOptions& options) {
  const coding::Params& p = options.params;
  std::vector<AuditCase> cases;
  auto push = [&](StaticKernelModel model,
                  std::vector<std::size_t> declared = {}) {
    AuditCase c;
    c.kernel = model.kernel;
    c.model = std::move(model);
    audit_model(spec, options, c.model, declared, c.findings);
    cases.push_back(std::move(c));
  };
  const EncodeScheme schemes[] = {
      EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
      EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
      EncodeScheme::kTable5};
  for (const EncodeScheme scheme : schemes) {
    push(encode_kernel_model(spec, scheme, p, options.batch_blocks,
                             options.assume));
  }
  push(preprocess_segment_model(spec, p));
  push(preprocess_coefficients_model(spec, p, options.batch_blocks));
  push(invert_kernel_model(spec, p, options.batch_blocks,
                           synthesize_invertible_matrix(p.n)),
       {1});
  push(recode_kernel_model(spec, EncodeScheme::kTable5, p, p.n,
                           options.batch_blocks, options.assume));
  return cases;
}

}  // namespace

AuditReport run_kernel_audit(const simgpu::DeviceSpec& spec,
                             const AuditOptions& options) {
  return finish_report(build_clean_cases(spec, options));
}

AuditReport run_seeded_audit(const simgpu::DeviceSpec& spec,
                             const AuditOptions& options, AuditSeedBug bug) {
  const coding::Params& p = options.params;
  std::vector<AuditCase> cases;
  AuditCase c;
  switch (bug) {
    case AuditSeedBug::kOobTail: {
      // Pick a batch size whose word count is not a thread multiple so the
      // dropped tail guard actually reaches past the buffer.
      std::size_t count = options.batch_blocks;
      while ((count * (p.k / 4)) % 256 == 0) ++count;
      c.model = encode_kernel_model(spec, EncodeScheme::kTable3, p, count,
                                    options.assume);
      // Without the guard the tail block stores a full thread count: its
      // last lane writes word ceil(words / threads) * threads - 1.
      const std::size_t threads = c.model.threads_per_block;
      const std::size_t wpb = p.k / 4;
      const std::size_t last =
          (count * wpb + threads - 1) / threads * threads - 1;
      for (simgpu::FootprintRegion& region : c.model.footprint) {
        if (region.name == "batch.payloads") {
          region.bytes_needed = (last / wpb) * p.k + (last % wpb) * 4 + 4;
        }
      }
      break;
    }
    case AuditSeedBug::kDivergentBarrier: {
      c.model = invert_kernel_model(spec, p, options.batch_blocks,
                                    synthesize_invertible_matrix(p.n));
      // The pivot scan modeled as "scan lane plus neighbor": width 2 is
      // outside the declared shape {1}.
      for (SegmentModel& seg : c.model.segments) {
        if (seg.step_width == 1) seg.step_width = 2;
      }
      break;
    }
    case AuditSeedBug::kConflictRegression: {
      c.model = class_encode_model(spec, EncodeScheme::kTable5, p,
                                   options.batch_blocks, options.assume,
                                   true);
      break;
    }
  }
  c.kernel = c.model.kernel;
  const std::vector<std::size_t> declared =
      bug == AuditSeedBug::kDivergentBarrier ? std::vector<std::size_t>{1}
                                             : std::vector<std::size_t>{};
  audit_model(spec, options, c.model, declared, c.findings);
  cases.push_back(std::move(c));
  return finish_report(std::move(cases));
}

}  // namespace extnc::gpu
