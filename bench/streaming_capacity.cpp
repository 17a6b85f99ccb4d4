// Sec. 5.1.1 / 5.1.3 streaming-server capacity: peers served at 768 kbps
// with 512 KB segments (128 x 4 KB), for each encoding scheme's modeled
// bandwidth. Paper anchors: 1385 peers at the loop-based 133 MB/s, >1844
// after the first table-based scheme, >3000 at the final 294 MB/s — which
// saturates two gigabit interfaces.
#include <cstdio>

#include "bench_common.h"
#include "gpu/gpu_model.h"
#include "net/streaming.h"

int main(int argc, char** argv) {
  using namespace extnc;
  using namespace extnc::bench;
  using namespace extnc::gpu;
  check_flags(argc, argv, {}, {"--csv"});
  const bool csv = has_flag(argc, argv, "--csv");
  const net::StreamConfig config;

  std::printf(
      "Streaming-server capacity (768 kbps streams, 512 KB segments of "
      "128 x 4 KB)\n\n");
  std::printf("Segment duration: %.2f s of content (client buffering delay)\n",
              net::segment_duration_s(config));
  std::printf("Peers per gigabit NIC: %zu\n\n", net::peers_by_nic(config));

  TablePrinter table({"scheme", "coding MB/s", "peers served",
                      "coded blocks/segment", "GbE NICs saturated"});
  for (EncodeScheme scheme :
       {EncodeScheme::kLoopBased, EncodeScheme::kTable1,
        EncodeScheme::kTable5}) {
    const double rate =
        model_encode_bandwidth(simgpu::gtx280(), scheme, config.segment)
            .mb_per_s;
    const std::size_t peers = net::peers_by_coding_rate(rate, config);
    table.add_row({scheme_name(scheme), TablePrinter::num(rate),
                   std::to_string(peers),
                   std::to_string(net::coded_blocks_per_segment(peers, config)),
                   TablePrinter::num(net::nics_saturated(rate), 2)});
  }
  print_table(table, csv);

  std::printf(
      "\nGPU memory: %zu segments fit the GTX 280's 1 GB (paper: \"hundreds "
      "of such segments\").\n",
      net::segments_in_memory(1024ull * 1024 * 1024, config));
  std::printf(
      "Paper anchors: 1385 peers (loop-based), 1844+ (first table-based "
      "scheme), 3000+ (table-based-5).\n");
  return 0;
}
