// Host-measured coding throughput: the real SIMD encoder/decoder of this
// library on this machine (the "measured" counterpart to the modeled
// 2009-hardware figures), reported per GF(2^8) backend.
//
// Three sections:
//   * backends — every backend the host supports runs the encoder shape
//     (n source rows fused into one k-byte payload) twice: one fused
//     mul_add_regions call vs n sequential mul_add_region calls. Same
//     bytes out; the ratio is the destination-blocking win.
//   * coding   — the shipping code paths (CpuEncoder full/partitioned,
//     progressive decode, multi-segment decode) on the process-selected
//     backend (EXTNC_GF256_BACKEND forces it).
//   * wire     — frame parse with the owned copy (parse) vs the borrowed
//     view (parse_view) on the decode hot path's packet shape, and CRC32C
//     over 1 KiB frames (bytes checked) on the process-selected backend
//     (wire/crc32c) and on the portable table loop (wire/crc32c_table).
//
// Usage:
//   host_coding [--quick] [--json] [--csv]
//               [--min-mb-per-s X] [--min-fused-speedup X] [--min-crc-mb-s X]
//
// --min-mb-per-s X exits non-zero if any backend's fused encoder-shape
// throughput lands below X MB/s — the CI floor for BENCH_hostpath.json.
// --min-fused-speedup X is the same gate for the best backend's
// fused/per-row ratio (the fused kernel must not regress into the per-row
// path). --min-crc-mb-s X gates the wire/crc32c row (the selected CRC
// backend). Floors are deliberately loose: they catch a dispatch ladder
// that silently fell to scalar (or to the CRC table loop) or a fused kernel
// that lost its blocking, not runner-to-runner noise.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "coding/wire.h"
#include "cpu/cpu_encoder.h"
#include "cpu/multi_segment_decoder.h"
#include "gf256/region.h"
#include "util/aligned_buffer.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace extnc::bench {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;

struct Shape {
  std::size_t n;
  std::size_t k;
  std::size_t batch;
  std::size_t segments;
  int repeats;
};

Shape shape_for(bool quick) {
  // Quick mode is the CI configuration BENCH_hostpath.json commits.
  if (quick) return {.n = 64, .k = 1024, .batch = 16, .segments = 3,
                     .repeats = 2};
  return {.n = 128, .k = 4096, .batch = 64, .segments = 6, .repeats = 3};
}

// Best-of-`repeats` wall-clock of fn(); returns MB/s over `bytes` per run.
template <typename Fn>
double measure_mb_per_s(int repeats, std::size_t bytes, Fn&& fn) {
  fn();  // untimed warm-up (first-touch, table fill)
  double best_s = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best_s) best_s = elapsed.count();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / best_s;
}

struct BackendRow {
  std::string name;
  double fused_mb_per_s = 0;
  double per_row_mb_per_s = 0;
  double fused_speedup() const {
    return per_row_mb_per_s > 0 ? fused_mb_per_s / per_row_mb_per_s : 0;
  }
};

// The encoder shape, driven straight at an Ops table (the coding classes
// always use the process-selected backend, so per-backend rows bypass
// them). `rounds` coded blocks per run amortize timer granularity.
std::vector<BackendRow> bench_backends(const Shape& shape) {
  const std::size_t rounds = shape.batch;
  Rng rng(21);
  AlignedBuffer sources(shape.n * shape.k);
  for (auto& b : sources.span()) b = rng.next_byte();
  std::vector<const std::uint8_t*> srcs(shape.n);
  std::vector<std::uint8_t> coeffs(shape.n);
  for (std::size_t i = 0; i < shape.n; ++i) {
    srcs[i] = sources.data() + i * shape.k;
    coeffs[i] = rng.next_nonzero_byte();
  }
  AlignedBuffer dst(shape.k);
  const std::size_t bytes = rounds * shape.n * shape.k;

  std::vector<BackendRow> rows;
  for (const gf256::Ops* backend : gf256::available_backends()) {
    BackendRow row;
    row.name = backend->name;
    row.fused_mb_per_s =
        measure_mb_per_s(shape.repeats, bytes, [&] {
          for (std::size_t r = 0; r < rounds; ++r) {
            backend->mul_add_regions(dst.data(), srcs.data(), coeffs.data(),
                                     shape.n, shape.k);
          }
        });
    row.per_row_mb_per_s =
        measure_mb_per_s(shape.repeats, bytes, [&] {
          for (std::size_t r = 0; r < rounds; ++r) {
            for (std::size_t i = 0; i < shape.n; ++i) {
              backend->mul_add_region(dst.data(), srcs[i], coeffs[i],
                                      shape.k);
            }
          }
        });
    rows.push_back(row);
  }
  return rows;
}

struct CodingRow {
  std::string name;
  double mb_per_s = 0;
};

std::vector<coding::CodedBlock> independent_blocks(const Segment& segment,
                                                   Rng& rng) {
  const coding::Encoder encoder(segment);
  coding::ProgressiveDecoder probe(segment.params());
  std::vector<coding::CodedBlock> blocks;
  while (!probe.is_complete()) {
    coding::CodedBlock block = encoder.encode(rng);
    if (probe.add(block) == coding::ProgressiveDecoder::Result::kAccepted) {
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

std::vector<CodingRow> bench_coding(const Shape& shape, ThreadPool& pool) {
  const Params params{.n = shape.n, .k = shape.k};
  Rng rng(22);
  const Segment segment = Segment::random(params, rng);
  std::vector<CodingRow> rows;

  for (const auto& [label, partitioning] :
       {std::pair<const char*, cpu::EncodePartitioning>{
            "cpu_encode/full-block", cpu::EncodePartitioning::kFullBlock},
        std::pair<const char*, cpu::EncodePartitioning>{
            "cpu_encode/partitioned",
            cpu::EncodePartitioning::kPartitionedBlock}}) {
    const cpu::CpuEncoder encoder(segment, pool, partitioning);
    CodedBatch batch(params, shape.batch);
    for (std::size_t j = 0; j < batch.count(); ++j) {
      for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
    }
    rows.push_back(
        {label, measure_mb_per_s(shape.repeats, batch.payload_bytes(),
                                 [&] { encoder.encode_into(batch); })});
  }

  const std::vector<coding::CodedBlock> blocks =
      independent_blocks(segment, rng);
  rows.push_back({"decode/serial",
                  measure_mb_per_s(shape.repeats, params.segment_bytes(), [&] {
                    coding::ProgressiveDecoder decoder(params);
                    for (const auto& block : blocks) decoder.add(block);
                  })});

  std::vector<CodedBatch> batches;
  for (std::size_t s = 0; s < shape.segments; ++s) {
    const Segment seg = Segment::random(params, rng);
    const std::vector<coding::CodedBlock> segment_blocks =
        independent_blocks(seg, rng);
    CodedBatch batch(params, params.n);
    for (std::size_t j = 0; j < params.n; ++j) {
      std::copy(segment_blocks[j].coefficients().begin(),
                segment_blocks[j].coefficients().end(),
                batch.coefficients(j).begin());
      std::copy(segment_blocks[j].payload().begin(),
                segment_blocks[j].payload().end(), batch.payload(j).begin());
    }
    batches.push_back(std::move(batch));
  }
  const cpu::MultiSegmentDecoder multiseg(params, pool);
  rows.push_back(
      {"decode/multiseg",
       measure_mb_per_s(shape.repeats,
                        shape.segments * params.segment_bytes(),
                        [&] { (void)multiseg.decode_all(batches); })});
  return rows;
}

std::vector<CodingRow> bench_wire(const Shape& shape) {
  const Params params{.n = shape.n, .k = shape.k};
  Rng rng(23);
  const Segment segment = Segment::random(params, rng);
  const coding::CodedBlock block = coding::Encoder(segment).encode(rng);
  const std::vector<std::uint8_t> frame = coding::serialize(0, block);
  // Enough frames per run for a stable clock read.
  const std::size_t rounds = 64;
  const std::size_t bytes = rounds * frame.size();
  std::vector<CodingRow> rows;
  rows.push_back({"wire/parse_copy",
                  measure_mb_per_s(shape.repeats, bytes, [&] {
                    for (std::size_t r = 0; r < rounds; ++r) {
                      const auto parsed = coding::parse(frame);
                      if (!parsed.ok()) die("parse failed");
                    }
                  })});
  rows.push_back({"wire/parse_view",
                  measure_mb_per_s(shape.repeats, bytes, [&] {
                    for (std::size_t r = 0; r < rounds; ++r) {
                      const auto parsed = coding::parse_view(frame);
                      if (!parsed.ok()) die("parse_view failed");
                    }
                  })});

  // CRC32C over 1 KiB frames, counted in bytes checked. Each run folds the
  // frame CRCs together; the two backends must agree on the result.
  constexpr std::size_t kCrcFrameBytes = 1024;
  const std::size_t crc_frames = 256;
  std::vector<std::uint8_t> crc_buffer(crc_frames * kCrcFrameBytes);
  for (auto& b : crc_buffer) b = rng.next_byte();
  const std::span<const std::uint8_t> crc_data(crc_buffer);
  auto crc_row = [&](const char* label, auto update, std::uint32_t& folded) {
    rows.push_back({label, measure_mb_per_s(shape.repeats, crc_buffer.size(),
                                            [&] {
      folded = 0;
      for (std::size_t f = 0; f < crc_frames; ++f) {
        folded ^= update(crc32c_init(),
                         crc_data.subspan(f * kCrcFrameBytes, kCrcFrameBytes));
      }
    })});
  };
  std::uint32_t selected = 0;
  std::uint32_t table = 0;
  crc_row("wire/crc32c", crc32c_update, selected);
  crc_row("wire/crc32c_table", crc32c_update_table, table);
  if (selected != table) die("crc32c backend disagrees with the table loop");
  return rows;
}

void print_json(const std::vector<BackendRow>& backends,
                const std::vector<CodingRow>& coding,
                const std::vector<CodingRow>& wire, const Shape& shape,
                bool quick, std::size_t pool_threads) {
  std::printf("{\n");
  std::printf("  \"bench\": \"hostpath\",\n");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"host_cores\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"pool_threads\": %zu,\n", pool_threads);
  std::printf("  \"selected_backend\": \"%s\",\n", gf256::ops().name);
  std::printf("  \"crc32c_backend\": \"%s\",\n", crc32c_backend());
  std::printf("  \"n\": %zu,\n", shape.n);
  std::printf("  \"k\": %zu,\n", shape.k);
  std::printf("  \"backends\": [\n");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const BackendRow& row = backends[i];
    std::printf("    {\"name\": \"%s\", \"fused_mb_per_s\": %.2f, "
                "\"per_row_mb_per_s\": %.2f, \"fused_speedup\": %.3f}%s\n",
                row.name.c_str(), row.fused_mb_per_s, row.per_row_mb_per_s,
                row.fused_speedup(), i + 1 < backends.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"coding\": [\n");
  for (std::size_t i = 0; i < coding.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"mb_per_s\": %.2f}%s\n",
                coding[i].name.c_str(), coding[i].mb_per_s,
                i + 1 < coding.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"wire\": [\n");
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"mb_per_s\": %.2f}%s\n",
                wire[i].name.c_str(), wire[i].mb_per_s,
                i + 1 < wire.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
}

int run(int argc, char** argv) {
  check_flags(argc, argv,
              {"--min-mb-per-s", "--min-fused-speedup", "--min-crc-mb-s"},
              {"--quick", "--json", "--csv"});
  const bool quick = has_flag(argc, argv, "--quick");
  const bool json = has_flag(argc, argv, "--json");
  const bool csv = has_flag(argc, argv, "--csv");
  const std::string min_mb_arg = flag_value(argc, argv, "--min-mb-per-s");
  const std::string min_fused_arg =
      flag_value(argc, argv, "--min-fused-speedup");
  double min_mb_per_s = 0;
  if (!min_mb_arg.empty()) {
    min_mb_per_s = std::atof(min_mb_arg.c_str());
    if (min_mb_per_s <= 0) die("--min-mb-per-s must be a positive number");
  }
  double min_fused_speedup = 0;
  if (!min_fused_arg.empty()) {
    min_fused_speedup = std::atof(min_fused_arg.c_str());
    if (min_fused_speedup <= 0) {
      die("--min-fused-speedup must be a positive number");
    }
  }

  const std::string min_crc_arg = flag_value(argc, argv, "--min-crc-mb-s");
  double min_crc_mb_s = 0;
  if (!min_crc_arg.empty()) {
    min_crc_mb_s = std::atof(min_crc_arg.c_str());
    if (min_crc_mb_s <= 0) die("--min-crc-mb-s must be a positive number");
  }

  const Shape shape = shape_for(quick);
  ThreadPool pool;
  const std::vector<BackendRow> backends = bench_backends(shape);
  const std::vector<CodingRow> coding = bench_coding(shape, pool);
  const std::vector<CodingRow> wire = bench_wire(shape);

  if (json) {
    print_json(backends, coding, wire, shape, quick, pool.num_threads());
  } else {
    TablePrinter backend_table(
        {"backend", "fused MB/s", "per-row MB/s", "fused speedup"});
    for (const BackendRow& row : backends) {
      backend_table.add_row({row.name, std::to_string(row.fused_mb_per_s),
                             std::to_string(row.per_row_mb_per_s),
                             std::to_string(row.fused_speedup())});
    }
    print_table(backend_table, csv);
    TablePrinter path_table({"path", "MB/s"});
    for (const CodingRow& row : coding) {
      path_table.add_row({row.name, std::to_string(row.mb_per_s)});
    }
    for (const CodingRow& row : wire) {
      path_table.add_row({row.name, std::to_string(row.mb_per_s)});
    }
    print_table(path_table, csv);
  }

  if (min_mb_per_s > 0) {
    for (const BackendRow& row : backends) {
      if (row.fused_mb_per_s < min_mb_per_s) {
        std::fprintf(stderr,
                     "error: backend %s: fused %.2f MB/s below "
                     "--min-mb-per-s %.2f\n",
                     row.name.c_str(), row.fused_mb_per_s, min_mb_per_s);
        return 1;
      }
    }
  }
  if (min_crc_mb_s > 0) {
    for (const CodingRow& row : wire) {
      if (row.name == "wire/crc32c" && row.mb_per_s < min_crc_mb_s) {
        std::fprintf(stderr,
                     "error: crc32c backend %s: %.2f MB/s below "
                     "--min-crc-mb-s %.2f\n",
                     crc32c_backend(), row.mb_per_s, min_crc_mb_s);
        return 1;
      }
    }
  }
  if (min_fused_speedup > 0 && !backends.empty()) {
    // Gate the best backend (the one the dispatch ladder selects): the
    // fused kernel must beat (or at X<1, at least not lose badly to) the
    // per-row loop on the encoder shape.
    const BackendRow& best = backends.front();
    if (best.fused_speedup() < min_fused_speedup) {
      std::fprintf(stderr,
                   "error: backend %s: fused/per-row speedup %.3f below "
                   "--min-fused-speedup %.3f\n",
                   best.name.c_str(), best.fused_speedup(),
                   min_fused_speedup);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace extnc::bench

int main(int argc, char** argv) { return extnc::bench::run(argc, argv); }
