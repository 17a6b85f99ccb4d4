// Coefficient-density ablation. The paper evaluates with fully dense
// matrices and notes "the performance will be even higher with sparser
// matrices" (Sec. 4.3): a zero coefficient is free in a region operation
// and the loop-based multiply's iteration count equals the coefficient's
// bit length. This bench quantifies both effects — measured on the host
// CPU encoder and measured as ALU work in the simulated loop-based GPU
// kernel — together with the price: the extra dependent blocks a decoder
// sees at low density.
#include <cstdio>

#include "bench_common.h"
#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "cpu/cpu_encoder.h"
#include "gpu/gpu_encoder.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace extnc;

double host_encode_rate(double density, ThreadPool& pool) {
  const coding::Params params{.n = 128, .k = 4096};
  Rng rng(1);
  const coding::Segment segment = coding::Segment::random(params, rng);
  const cpu::CpuEncoder encoder(segment, pool);
  coding::CodedBatch batch(params, 48);
  const auto model = coding::CoefficientModel::sparse(density);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    model.draw(rng, batch.coefficients(j));
  }
  encoder.encode_into(batch);  // warm-up
  Timer timer;
  encoder.encode_into(batch);
  return mb_per_second(static_cast<double>(batch.payload_bytes()),
                       timer.elapsed_seconds());
}

double gpu_alu_per_word(double density) {
  const coding::Params params{.n = 64, .k = 512};
  Rng rng(2);
  const coding::Segment segment = coding::Segment::random(params, rng);
  gpu::GpuEncoder encoder(simgpu::gtx280(), segment,
                          gpu::EncodeScheme::kLoopBased);
  coding::CodedBatch batch(params, 16);
  const auto model = coding::CoefficientModel::sparse(density);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    model.draw(rng, batch.coefficients(j));
  }
  encoder.encode_into(batch);
  const double words = 16 * 512 / 4.0;
  return encoder.encode_metrics().alu_ops() / words;
}

double dependent_fraction(double density) {
  const coding::Params params{.n = 64, .k = 16};
  Rng rng(3);
  const coding::Segment segment = coding::Segment::random(params, rng);
  const coding::Encoder encoder(segment,
                                coding::CoefficientModel::sparse(density));
  std::size_t dependent = 0;
  std::size_t sent = 0;
  for (int trial = 0; trial < 20; ++trial) {
    coding::ProgressiveDecoder decoder(params);
    while (!decoder.is_complete()) {
      ++sent;
      if (decoder.add(encoder.encode(rng)) !=
          coding::ProgressiveDecoder::Result::kAccepted) {
        ++dependent;
      }
    }
  }
  return static_cast<double>(dependent) / static_cast<double>(sent);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace extnc::bench;
  check_flags(argc, argv, {}, {"--csv"});
  const bool csv = has_flag(argc, argv, "--csv");
  ThreadPool pool;

  std::printf("Coefficient density ablation (n=128, k=4 KB encode; n=64 "
              "dependence probe)\n\n");
  TablePrinter table({"density", "host CPU MB/s", "GPU LB alu/word",
                      "dependent blocks"});
  for (double density : {1.0, 0.75, 0.5, 0.25, 0.1, 0.05}) {
    table.add_row({TablePrinter::num(density, 2),
                   TablePrinter::num(host_encode_rate(density, pool)),
                   TablePrinter::num(gpu_alu_per_word(density), 0),
                   TablePrinter::num(100 * dependent_fraction(density), 1) +
                       "%"});
  }
  print_table(table, csv);
  std::printf(
      "\nExpected: throughput rises and GPU ALU work falls roughly linearly "
      "as density drops; linear-dependence overhead stays negligible until "
      "density gets very low.\n");
  return 0;
}
