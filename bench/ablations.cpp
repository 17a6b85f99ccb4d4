// The paper's smaller measured effects, one section per claim:
//   Sec. 5.4.1 — hybrid GPU+CPU encoding; GTX 280 ~4.3x the 8-core Xeon.
//   Sec. 5.4.2 — atomicMin pivot search: ~0.6% decode gain.
//   Sec. 5.4.3 — coefficient-matrix caching: 0.5%-3.4% decode gain,
//                biggest at small blocks.
//   Sec. 5.1.2 — encoding from many source segments at once costs ~0.6%
//                (extra preprocessing), so one-segment-many-blocks and
//                VoD-style many-segments perform alike.
//   Sec. 5.1.3 — dummy-input benchmark: removing all memory traffic gains
//                only ~0.5% (memory latency is fully hidden).
//   Sec. 5.1.2 — the table-based scheme ported back to the CPU loses up
//                to 43% against the SIMD loop-based encoder.
//   Sec. 5.1.2 — a future GPU with 64-bit integer ALUs would double
//                loop-based throughput.
#include <cstdio>

#include "bench_common.h"
#include "cpu/xeon_model.h"
#include "gpu/gpu_model.h"

int main(int argc, char** argv) {
  using namespace extnc;
  using namespace extnc::bench;
  using namespace extnc::gpu;
  check_flags(argc, argv, {}, {"--csv"});
  const bool csv = has_flag(argc, argv, "--csv");
  const auto& gtx = simgpu::gtx280();
  const cpu::XeonModel xeon;
  const coding::Params base{.n = 128, .k = 4096};

  // ---------------------------------------------------------- Sec. 5.4.1
  {
    const double gpu_rate =
        model_encode_bandwidth(gtx, EncodeScheme::kTable5, base).mb_per_s;
    const double cpu_rate =
        xeon.encode_mb_per_s(base, cpu::EncodePartitioning::kFullBlock);
    std::printf("Sec. 5.4.1 — hybrid GPU+CPU encoding (n=128, k=4 KB)\n");
    std::printf("  GPU (table-based-5) : %7.1f MB/s\n", gpu_rate);
    std::printf("  CPU (8-core model)  : %7.1f MB/s\n", cpu_rate);
    std::printf("  combined            : %7.1f MB/s\n", gpu_rate + cpu_rate);
    std::printf("  GPU/CPU ratio       : %7.1fx (paper: ~4.3x)\n\n",
                gpu_rate / cpu_rate);
  }

  // ---------------------------------------------------------- Sec. 5.4.2
  {
    std::printf("Sec. 5.4.2 — atomicMin pivot search (decode, n=128)\n");
    TablePrinter table({"block size", "serial MB/s", "atomicMin MB/s",
                        "gain"});
    for (std::size_t k : {1024u, 4096u, 16384u}) {
      const coding::Params p{.n = 128, .k = k};
      const double serial = model_single_segment_decode(gtx, p, {}).mb_per_s;
      const double atomic =
          model_single_segment_decode(gtx, p, {.use_atomic_min = true})
              .mb_per_s;
      table.add_row({block_size_label(k), TablePrinter::num(serial, 2),
                     TablePrinter::num(atomic, 2),
                     TablePrinter::num(100 * (atomic / serial - 1), 2) + "%"});
    }
    print_table(table, csv);
    std::printf("  (paper: ~0.6%% improvement)\n\n");
  }

  // ---------------------------------------------------------- Sec. 5.4.3
  {
    std::printf("Sec. 5.4.3 — coefficient matrix cached in shared memory "
                "(decode, n=128)\n");
    TablePrinter table({"block size", "uncached MB/s", "cached MB/s", "gain"});
    for (std::size_t k : {512u, 1024u, 4096u, 16384u}) {
      const coding::Params p{.n = 128, .k = k};
      const double uncached = model_single_segment_decode(gtx, p, {}).mb_per_s;
      const double cached =
          model_single_segment_decode(gtx, p, {.cache_coefficients = true})
              .mb_per_s;
      table.add_row(
          {block_size_label(k), TablePrinter::num(uncached, 2),
           TablePrinter::num(cached, 2),
           TablePrinter::num(100 * (cached / uncached - 1), 2) + "%"});
    }
    print_table(table, csv);
    std::printf("  (paper: 0.5%%-3.4%%, biggest at small blocks)\n\n");
  }

  // ----------------------------------------------- Sec. 5.1.2 multi-segment
  {
    // Streaming: thousands of coded blocks amortize one segment's
    // preprocessing. VoD: every segment yields only n coded blocks.
    EncodeModelOptions streaming;
    streaming.coded_blocks = 16 * base.n;
    EncodeModelOptions vod;
    vod.coded_blocks = base.n;
    const double s =
        model_encode_bandwidth(gtx, EncodeScheme::kTable5, base, streaming)
            .mb_per_s;
    const double v =
        model_encode_bandwidth(gtx, EncodeScheme::kTable5, base, vod).mb_per_s;
    std::printf("Sec. 5.1.2 — many-blocks-per-segment vs VoD "
                "(n blocks per segment)\n");
    std::printf("  streaming workload  : %7.1f MB/s\n", s);
    std::printf("  VoD workload        : %7.1f MB/s (%.2f%% slower; paper: "
                "~0.6%%)\n\n",
                v, 100 * (1 - v / s));
  }

  // ------------------------------------------------ Sec. 5.1.3 dummy input
  {
    const auto est = model_encode_bandwidth(gtx, EncodeScheme::kTable5, base);
    // Dummy input: generate sources/coefficients on the fly, no memory.
    const double compute_only_s = est.time.compute_s + est.time.launch_s;
    const double dummy_rate = est.mb_per_s * est.time.total_s / compute_only_s;
    std::printf("Sec. 5.1.3 — dummy-input (no memory traffic) benchmark\n");
    std::printf("  normal encode       : %7.1f MB/s\n", est.mb_per_s);
    std::printf("  dummy input         : %7.1f MB/s (+%.2f%%; paper: "
                "~0.5%%)\n\n",
                dummy_rate, 100 * (dummy_rate / est.mb_per_s - 1));
  }

  // ------------------------------------------------- CPU table-based port
  {
    const double loop_rate =
        xeon.encode_mb_per_s(base, cpu::EncodePartitioning::kFullBlock);
    const double table_rate = xeon.encode_table_mb_per_s(base);
    std::printf("Sec. 5.1.2 — table-based scheme ported to the CPU\n");
    std::printf("  SIMD loop-based     : %7.1f MB/s\n", loop_rate);
    std::printf("  table-based         : %7.1f MB/s (%.0f%% drop; paper: up "
                "to 43%%)\n\n",
                table_rate, 100 * (1 - table_rate / loop_rate));
  }

  // ------------------------------------------------- 64-bit GPU speculation
  {
    const double rate32 =
        model_encode_bandwidth(gtx, EncodeScheme::kLoopBased, base).mb_per_s;
    std::printf("Sec. 5.1.2 — loop-based encoding on a future 64-bit GPU\n");
    std::printf("  32-bit ALUs (GTX280): %7.1f MB/s\n", rate32);
    std::printf("  64-bit ALUs (hypoth): %7.1f MB/s (byte-by-8-byte "
                "multiplies halve the instruction count)\n",
                rate32 * 2);
  }
  return 0;
}
