// Code-family comparison (paper Sec. 2): random linear network coding vs
// Reed-Solomon vs LT fountain codes.
//
// "While there is no doubt that more efficient codes exist, they may not
// be suitable for randomized network coding in a practical setting. In
// contrast, random linear codes are simple, effective, and can be recoded
// without affecting the guarantee to decode." This bench puts numbers on
// that sentence: reception overhead over a lossy link, decode throughput
// on the host, and the structural properties (rateless? recodable at
// relays?) that decide which systems each code fits.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "codes/lt_code.h"
#include "codes/reed_solomon.h"
#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace extnc;

constexpr std::size_t kBlocks = 64;
constexpr std::size_t kBlockBytes = 1024;
constexpr int kTrials = 8;

// Average packets a receiver must accept (after loss) to decode, / k.
double rlnc_overhead(double loss) {
  Rng rng(1);
  double received = 0;
  for (int t = 0; t < kTrials; ++t) {
    const coding::Params params{.n = kBlocks, .k = kBlockBytes};
    const coding::Segment segment = coding::Segment::random(params, rng);
    const coding::Encoder encoder(segment);
    coding::ProgressiveDecoder decoder(params);
    while (!decoder.is_complete()) {
      const auto block = encoder.encode(rng);
      if (rng.next_double() < loss) continue;
      decoder.add(block);
      received += 1;
    }
  }
  return received / (kTrials * static_cast<double>(kBlocks));
}

double lt_overhead(double loss) {
  Rng rng(2);
  double received = 0;
  for (int t = 0; t < kTrials; ++t) {
    const codes::LtParams params{.source_blocks = kBlocks,
                                 .block_bytes = kBlockBytes};
    const codes::LtEncoder encoder = codes::LtEncoder::random(params, rng);
    codes::LtDecoder decoder(params);
    while (!decoder.is_complete()) {
      auto packet = encoder.encode(rng);
      if (rng.next_double() < loss) continue;
      decoder.add(std::move(packet));
      received += 1;
    }
  }
  return received / (kTrials * static_cast<double>(kBlocks));
}

// RS is fixed-rate: with m parity blocks it absorbs AT MOST m losses; the
// overhead is the provisioned redundancy, not a function of what arrived.
double rs_required_redundancy(double loss) {
  // Provision so a whole k+m transmission survives >= k blocks with ~99%
  // probability (binomial tail, solved numerically).
  const double p = 1 - loss;
  for (std::size_t m = 0; m <= 192; ++m) {
    const std::size_t total = kBlocks + m;
    // P(survivors >= k) via complement of binomial CDF.
    double prob = 0;
    double log_choose = 0;  // log C(total, 0)
    for (std::size_t s = 0; s <= total; ++s) {
      if (s >= kBlocks) {
        prob += std::exp(log_choose + s * std::log(p) +
                         (total - s) * std::log1p(-p));
      }
      log_choose += std::log(static_cast<double>(total - s)) -
                    std::log(static_cast<double>(s + 1));
    }
    if (prob >= 0.99) {
      return static_cast<double>(total) / static_cast<double>(kBlocks);
    }
  }
  return 4.0;
}

double rlnc_decode_rate_mb() {
  Rng rng(3);
  const coding::Params params{.n = kBlocks, .k = kBlockBytes};
  const coding::Segment segment = coding::Segment::random(params, rng);
  const coding::Encoder encoder(segment);
  std::vector<coding::CodedBlock> blocks;
  coding::ProgressiveDecoder probe(params);
  while (!probe.is_complete()) {
    auto block = encoder.encode(rng);
    if (probe.add(block) == coding::ProgressiveDecoder::Result::kAccepted) {
      blocks.push_back(std::move(block));
    }
  }
  Timer timer;
  for (int rep = 0; rep < 4; ++rep) {
    coding::ProgressiveDecoder decoder(params);
    for (const auto& block : blocks) decoder.add(block);
  }
  return mb_per_second(4.0 * params.segment_bytes(), timer.elapsed_seconds());
}

double rs_decode_rate_mb() {
  Rng rng(4);
  const codes::RsParams params{.data_blocks = kBlocks, .parity_blocks = 16,
                               .block_bytes = kBlockBytes};
  std::vector<std::uint8_t> data(kBlocks * kBlockBytes);
  for (auto& b : data) b = rng.next_byte();
  const codes::ReedSolomon rs(params);
  const auto parity = rs.encode(data);
  std::vector<std::span<const std::uint8_t>> shards;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    shards.emplace_back(data.data() + i * kBlockBytes, kBlockBytes);
  }
  for (const auto& p : parity) shards.emplace_back(p.span());
  for (std::size_t i = 0; i < 16; ++i) shards[i] = {};  // worst case: 16 losses
  Timer timer;
  for (int rep = 0; rep < 4; ++rep) {
    auto out = rs.decode(shards);
    if (!out.has_value()) return 0;
  }
  return mb_per_second(4.0 * data.size(), timer.elapsed_seconds());
}

double lt_decode_rate_mb() {
  Rng rng(5);
  const codes::LtParams params{.source_blocks = kBlocks,
                               .block_bytes = kBlockBytes};
  const codes::LtEncoder encoder = codes::LtEncoder::random(params, rng);
  // Pre-generate a decodable packet set.
  std::vector<codes::LtPacket> packets;
  {
    codes::LtDecoder probe(params);
    while (!probe.is_complete()) {
      packets.push_back(encoder.encode(rng));
      auto copy = packets.back();
      codes::LtPacket clone;
      clone.sources = copy.sources;
      clone.payload = AlignedBuffer(params.block_bytes);
      std::memcpy(clone.payload.data(), copy.payload.data(),
                  params.block_bytes);
      probe.add(std::move(clone));
    }
  }
  Timer timer;
  for (int rep = 0; rep < 4; ++rep) {
    codes::LtDecoder decoder(params);
    for (const auto& packet : packets) {
      codes::LtPacket clone;
      clone.sources = packet.sources;
      clone.payload = AlignedBuffer(params.block_bytes);
      std::memcpy(clone.payload.data(), packet.payload.data(),
                  params.block_bytes);
      decoder.add(std::move(clone));
    }
    if (!decoder.is_complete()) return 0;
  }
  return mb_per_second(4.0 * kBlocks * kBlockBytes, timer.elapsed_seconds());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace extnc::bench;
  check_flags(argc, argv, {}, {"--csv"});
  const bool csv = has_flag(argc, argv, "--csv");

  std::printf("Code families at k = %zu blocks x %zu B (paper Sec. 2)\n\n",
              kBlocks, kBlockBytes);
  TablePrinter table({"property", "RLNC (GF 2^8)", "Reed-Solomon",
                      "LT fountain"});
  table.add_row({"rateless (fresh blocks on demand)", "yes", "no (fixed m)",
                 "yes"});
  table.add_row({"recodable at relays w/o decoding", "yes", "no", "no"});
  table.add_row({"packets/k to decode, 20% loss",
                 TablePrinter::num(rlnc_overhead(0.2), 3),
                 TablePrinter::num(rs_required_redundancy(0.2), 3) +
                     " (provisioned)",
                 TablePrinter::num(lt_overhead(0.2), 3)});
  table.add_row({"packets/k to decode, lossless",
                 TablePrinter::num(rlnc_overhead(0.0), 3), "1.000",
                 TablePrinter::num(lt_overhead(0.0), 3)});
  table.add_row({"host decode MB/s",
                 TablePrinter::num(rlnc_decode_rate_mb(), 0),
                 TablePrinter::num(rs_decode_rate_mb(), 0),
                 TablePrinter::num(lt_decode_rate_mb(), 0)});
  table.add_row({"decode cost scaling", "O(n^2 k) GF ops",
                 "O(k m) GF ops + small inverse", "O(k) XOR (peeling)"});
  print_table(table, csv);
  std::printf(
      "\nReading: RS has zero reception overhead but must fix its rate in "
      "advance and cannot recode; LT is rateless and cheap but pays "
      "reception overhead and is not recodable; RLNC pays GF arithmetic — "
      "the cost the paper's GPU pipeline attacks — to get both properties "
      "at ~zero overhead.\n");
  return 0;
}
