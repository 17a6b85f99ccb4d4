// Field-size ablation: GF(2^8) vs GF(2^16).
//
// Bigger symbols make linearly dependent blocks vanish (~1/(q-1) wasted
// blocks per decode) but blow the log/exp tables from 768 B to 384 KB —
// which is why the paper's entire shared-memory engineering (Sec. 5.1)
// and most practice stays at 8 bits. Measured here on the host: region-op
// throughput of each field's table-driven path, plus the dependence rates.
#include <cstdio>

#include "bench_common.h"
#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "gf256/region.h"
#include "gf65536/codec16.h"
#include "gf65536/gf16.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace extnc;

double gf256_table_rate_mb() {
  // Scalar table path (the apples-to-apples comparison; SIMD nibble tables
  // have no GF(2^16) analog precisely because of table size).
  Rng rng(1);
  const std::size_t len = 1 << 20;
  AlignedBuffer src(len);
  AlignedBuffer dst(len);
  for (auto& b : src.span()) b = rng.next_byte();
  const gf256::Ops& ops = gf256::scalar_ops();
  ops.mul_add_region(dst.data(), src.data(), 0x53, len);  // warm-up
  Timer timer;
  const int reps = 64;
  for (int r = 0; r < reps; ++r) {
    ops.mul_add_region(dst.data(), src.data(),
                       static_cast<std::uint8_t>(1 + r), len);
  }
  return mb_per_second(static_cast<double>(len) * reps,
                       timer.elapsed_seconds());
}

double gf256_simd_rate_mb() {
  Rng rng(2);
  const std::size_t len = 1 << 20;
  AlignedBuffer src(len);
  AlignedBuffer dst(len);
  for (auto& b : src.span()) b = rng.next_byte();
  const gf256::Ops& ops = gf256::ops();
  Timer timer;
  const int reps = 64;
  for (int r = 0; r < reps; ++r) {
    ops.mul_add_region(dst.data(), src.data(),
                       static_cast<std::uint8_t>(1 + r), len);
  }
  return mb_per_second(static_cast<double>(len) * reps,
                       timer.elapsed_seconds());
}

double gf65536_rate_mb() {
  Rng rng(3);
  const std::size_t symbols = 1 << 19;  // 1 MB
  std::vector<std::uint16_t> src(symbols);
  std::vector<std::uint16_t> dst(symbols);
  for (auto& s : src) s = static_cast<std::uint16_t>(rng.next());
  gf65536::mul_add_region(dst.data(), src.data(), 0x1234, symbols);
  Timer timer;
  const int reps = 64;
  for (int r = 0; r < reps; ++r) {
    gf65536::mul_add_region(dst.data(), src.data(),
                            static_cast<std::uint16_t>(1 + r), symbols);
  }
  return mb_per_second(static_cast<double>(symbols) * 2 * reps,
                       timer.elapsed_seconds());
}

double dependents_per_decode_gf256(std::size_t n, int decodes) {
  Rng rng(4);
  const coding::Params params{.n = n, .k = 8};
  std::size_t dependent = 0;
  for (int d = 0; d < decodes; ++d) {
    const coding::Segment segment = coding::Segment::random(params, rng);
    const coding::Encoder encoder(segment);
    coding::ProgressiveDecoder decoder(params);
    while (!decoder.is_complete()) {
      if (decoder.add(encoder.encode(rng)) !=
          coding::ProgressiveDecoder::Result::kAccepted) {
        ++dependent;
      }
    }
  }
  return static_cast<double>(dependent) / decodes;
}

double dependents_per_decode_gf65536(std::size_t n, int decodes) {
  Rng rng(5);
  const gf65536::Params16 params{.n = n, .symbols = 4};
  std::size_t dependent = 0;
  std::vector<std::uint16_t> coeffs;
  std::vector<std::uint16_t> payload;
  for (int d = 0; d < decodes; ++d) {
    const auto encoder = gf65536::Encoder16::random(params, rng);
    gf65536::Decoder16 decoder(params);
    while (!decoder.is_complete()) {
      encoder.encode(rng, coeffs, payload);
      if (decoder.add(coeffs, payload) !=
          gf65536::Decoder16::Result::kAccepted) {
        ++dependent;
      }
    }
  }
  return static_cast<double>(dependent) / decodes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace extnc::bench;
  check_flags(argc, argv, {}, {"--csv"});
  const bool csv = has_flag(argc, argv, "--csv");

  std::printf("Field-size ablation: GF(2^8) vs GF(2^16)\n\n");
  TablePrinter table({"metric", "GF(2^8)", "GF(2^16)"});
  table.add_row({"log/exp table footprint", "768 B", "384 KB"});
  table.add_row({"table mul_add MB/s (scalar)",
                 TablePrinter::num(gf256_table_rate_mb(), 0),
                 TablePrinter::num(gf65536_rate_mb(), 0)});
  table.add_row({"best mul_add MB/s (SIMD nibble tables)",
                 TablePrinter::num(gf256_simd_rate_mb(), 0), "n/a"});
  const int decodes = 3000;
  table.add_row({"dependent blocks per decode (n=8)",
                 TablePrinter::num(dependents_per_decode_gf256(8, decodes), 4),
                 TablePrinter::num(dependents_per_decode_gf65536(8, decodes),
                                   4)});
  print_table(table, csv);
  std::printf(
      "\nExpected: ~1/255 vs ~1/65535 wasted blocks per decode; the larger "
      "field's tables fall out of L1/shared memory, killing the throughput "
      "edge that makes the GF(2^8) pipeline viable on 2009 GPUs.\n");
  return 0;
}
