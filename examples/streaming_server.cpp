// The paper's motivating application (Sec. 5.1.1): a GPU-accelerated video
// streaming server. A media segment is pushed to the (simulated) GTX 280,
// preprocessed to the log domain once, and the table-based-5 kernel then
// generates per-peer coded blocks; each peer decodes its own stream.
//
// This example runs the real kernels (functionally, at a reduced scale),
// prints the kernel metrics, and then scales up with the calibrated timing
// model to the paper's capacity numbers.
#include <cstdio>

#include "coding/progressive_decoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_model.h"
#include "net/streaming.h"
#include "util/rng.h"

int main() {
  using namespace extnc;

  // Scaled-down segment so the functional simulation stays fast; the
  // paper-scale numbers below use the calibrated model.
  const coding::Params params{.n = 32, .k = 1024};
  const std::size_t num_peers = 12;
  Rng rng(7);
  const coding::Segment segment = coding::Segment::random(params, rng);

  std::printf("== GPU streaming server (simulated GTX 280) ==\n");
  gpu::GpuEncoder encoder(simgpu::gtx280(), segment,
                          gpu::EncodeScheme::kTable5);

  // Serve each peer its own batch of coded blocks (a real server would
  // interleave; the coding is oblivious to ordering).
  std::size_t served = 0;
  std::size_t decoded_ok = 0;
  for (std::size_t peer = 0; peer < num_peers; ++peer) {
    const coding::CodedBatch batch = encoder.encode_batch(params.n + 2, rng);
    served += batch.count();
    coding::ProgressiveDecoder decoder(params);
    for (std::size_t j = 0; j < batch.count() && !decoder.is_complete(); ++j) {
      decoder.add(batch.coefficients(j), batch.payload(j));
    }
    if (decoder.is_complete() && decoder.decoded_segment() == segment) {
      ++decoded_ok;
    }
  }
  std::printf("Served %zu coded blocks to %zu peers; %zu decoded the segment "
              "correctly\n",
              served, num_peers, decoded_ok);

  const auto& m = encoder.encode_metrics();
  std::printf("Kernel metrics: %.0fM ALU ops, %.1f MB global traffic, "
              "shared-mem conflict degree %.2f\n\n",
              m.alu_ops() / 1e6,
              static_cast<double>(m.global_bytes()) / 1e6,
              m.shared_conflict_degree());

  // Paper-scale capacity with the calibrated model.
  std::printf("== Paper-scale capacity (768 kbps streams, 512 KB segments) "
              "==\n");
  const net::StreamConfig config;
  const double rate = gpu::model_encode_bandwidth(
                          simgpu::gtx280(), gpu::EncodeScheme::kTable5,
                          config.segment)
                          .mb_per_s;
  const std::size_t peers = net::peers_by_coding_rate(rate, config);
  std::printf("Encoding rate          : %.1f MB/s\n", rate);
  std::printf("Peers served           : %zu (paper: 3000+)\n", peers);
  std::printf("Coded blocks / segment : %zu\n",
              net::coded_blocks_per_segment(peers, config));
  std::printf("GbE NICs saturated     : %.2f (paper: \"two Gigabit Ethernet "
              "interfaces\")\n",
              net::nics_saturated(rate));
  std::printf("Segments in 1 GB VRAM  : %zu\n",
              net::segments_in_memory(1024ull << 20, config));
  return decoded_ok == num_peers ? 0 : 1;
}
