// Text records of simulated launches for the pinned-profile and sweep
// tests: every KernelMetrics field, each launch's label, geometry and
// modeled time, and FNV-1a digests of output bytes. Two runs made the same
// observable launches exactly when their records are equal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "coding/batch.h"
#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "coding/segment.h"
#include "simgpu/metrics.h"
#include "simgpu/profiler.h"
#include "util/rng.h"

namespace extnc::gpu::test {

inline void append_metrics(std::ostringstream& os,
                           const simgpu::KernelMetrics& m) {
  os << " alu=" << m.alu_deciops << " gload=" << m.global_load_bytes
     << " gstore=" << m.global_store_bytes
     << " gtx=" << m.global_transactions << " shared=" << m.shared_accesses
     << " shev=" << m.shared_access_events
     << " shcyc=" << m.shared_serialized_cycles
     << " tex=" << m.texture_fetches << " texmiss=" << m.texture_misses
     << " atomic=" << m.atomic_ops << " bar=" << m.barriers
     << " launches=" << m.kernel_launches << " mblocks=" << m.blocks
     << " mthreads=" << m.threads_per_block;
}

inline void append_launches(std::ostringstream& os,
                            const simgpu::Profiler& prof) {
  for (const simgpu::LaunchProfile& l : prof.launches()) {
    char time[64];
    std::snprintf(time, sizeof time, "%a", l.time.total_s);
    os << "  launch " << l.label << " blocks=" << l.blocks
       << " threads=" << l.threads_per_block;
    append_metrics(os, l.metrics);
    os << " time=" << time << "\n";
  }
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// FNV-1a 64 over `size` bytes, folded into `h`.
inline std::uint64_t fnv(std::uint64_t h, const std::uint8_t* data,
                         std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t batch_digest(const coding::CodedBatch& batch) {
  const std::uint64_t h = fnv(kFnvBasis, batch.coefficients_data(),
                              batch.count() * batch.params().n);
  return fnv(h, batch.payloads_data(), batch.payload_bytes());
}

// The first line where two records differ, with its number; empty when
// they are equal.
inline std::string first_difference(const std::string& expected,
                                    const std::string& actual) {
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (std::size_t line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, el));
    const bool more_a = static_cast<bool>(std::getline(a, al));
    if (!more_e && !more_a) return "";
    if (more_e != more_a || el != al) {
      return "line " + std::to_string(line) + ":\n  expected " +
             (more_e ? el : "<end>") + "\n  actual   " +
             (more_a ? al : "<end>");
    }
  }
}

// n linearly independent coded blocks of `segment`.
inline coding::CodedBatch independent_batch(const coding::Segment& segment,
                                            Rng& rng) {
  const coding::Params& params = segment.params();
  const coding::Encoder encoder(segment);
  coding::BlockDecoder probe(params);
  coding::CodedBatch batch(params, params.n);
  std::size_t stored = 0;
  while (stored < params.n) {
    coding::CodedBlock block = encoder.encode(rng);
    if (!probe.add(block)) continue;
    std::copy(block.coefficients().begin(), block.coefficients().end(),
              batch.coefficients(stored).begin());
    std::copy(block.payload().begin(), block.payload().end(),
              batch.payload(stored).begin());
    ++stored;
  }
  return batch;
}

}  // namespace extnc::gpu::test
