// Pins the modeled bandwidths to the paper's published numbers. If a
// calibration constant or kernel template drifts, these fail. Tolerances
// are ~10% except where the paper states an exact headline figure.
#include "gpu/gpu_model.h"

#include <optional>

#include <gtest/gtest.h>

#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "cpu/xeon_model.h"
#include "gpu/gpu_multiseg_decoder.h"

namespace extnc::gpu {
namespace {

using coding::Params;

const simgpu::DeviceSpec& gtx() { return simgpu::gtx280(); }

double encode_mbps(EncodeScheme scheme, std::size_t n, std::size_t k = 4096) {
  return model_encode_bandwidth(gtx(), scheme, {.n = n, .k = k}).mb_per_s;
}

// --- Fig. 7: the optimization ladder at n = 128 ---------------------------

TEST(GpuModelFig7, LoopBasedNear133) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kLoopBased, 128), 133.0, 8.0);
}

TEST(GpuModelFig7, Table0Near106) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable0, 128), 106.0, 8.0);
}

TEST(GpuModelFig7, Table1Near172) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable1, 128), 172.0, 10.0);
}

TEST(GpuModelFig7, Table2Near193) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable2, 128), 193.0, 11.0);
}

TEST(GpuModelFig7, Table3Near208) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable3, 128), 208.0, 12.0);
}

TEST(GpuModelFig7, Table4Near239) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable4, 128), 239.0, 14.0);
}

TEST(GpuModelFig7, Table5Near294) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable5, 128), 294.0, 18.0);
}

TEST(GpuModelFig7, LadderIsMonotone) {
  // Table-0 regresses from loop-based; every later variant improves.
  const double lb = encode_mbps(EncodeScheme::kLoopBased, 128);
  EXPECT_LT(encode_mbps(EncodeScheme::kTable0, 128), lb);
  double prev = lb;
  for (EncodeScheme s : {EncodeScheme::kTable1, EncodeScheme::kTable2,
                         EncodeScheme::kTable3, EncodeScheme::kTable4,
                         EncodeScheme::kTable5}) {
    const double rate = encode_mbps(s, 128);
    EXPECT_GT(rate, prev) << scheme_name(s);
    prev = rate;
  }
}

TEST(GpuModelFig7, TableBasedBeatsLoopBasedByFactor2ish) {
  // Headline claim: "improve network encoding by a factor of 2.2".
  const double ratio = encode_mbps(EncodeScheme::kTable5, 128) /
                       encode_mbps(EncodeScheme::kLoopBased, 128);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 2.4);
}

// --- Fig. 8: best encode across n ------------------------------------------

TEST(GpuModelFig8, BestEncodeAcrossN) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable5, 128), 298.5, 20.0);
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable5, 256), 146.9, 12.0);
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable5, 512), 73.5, 6.0);
  EXPECT_NEAR(encode_mbps(EncodeScheme::kTable5, 1024), 36.6, 3.0);
}

// --- Fig. 4(a): loop-based encode, GTX 280 vs 8800 GT ----------------------

TEST(GpuModelFig4a, EncodeScalesInverselyWithN) {
  EXPECT_NEAR(encode_mbps(EncodeScheme::kLoopBased, 256), 66.0, 5.0);
  EXPECT_NEAR(encode_mbps(EncodeScheme::kLoopBased, 512), 33.6, 3.0);
}

TEST(GpuModelFig4a, EncodeIsFlatAcrossBlockSizes) {
  const double small = encode_mbps(EncodeScheme::kLoopBased, 128, 256);
  const double large = encode_mbps(EncodeScheme::kLoopBased, 128, 32768);
  EXPECT_NEAR(small / large, 1.0, 0.05);
}

TEST(GpuModelFig4a, Gtx280DoublesThe8800Gt) {
  // "encoding in GTX 280 achieves a rate almost twice of 8800 GT, a linear
  // speedup, across all coding settings."
  for (std::size_t n : {128u, 256u, 512u}) {
    const double gtx_rate = encode_mbps(EncodeScheme::kLoopBased, n);
    const double gt_rate =
        model_encode_bandwidth(simgpu::geforce_8800gt(),
                               EncodeScheme::kLoopBased, {.n = n, .k = 4096})
            .mb_per_s;
    EXPECT_NEAR(gtx_rate / gt_rate, 2.08, 0.15) << n;
  }
}

// --- Fig. 4(b): single-segment decoding -------------------------------------

TEST(GpuModelFig4b, GpuDecodeBeatsMacProAt8KbAndAbove) {
  const cpu::XeonModel xeon;
  for (std::size_t k : {8192u, 16384u, 32768u}) {
    const Params p{.n = 128, .k = k};
    EXPECT_GT(model_single_segment_decode(gtx(), p).mb_per_s,
              xeon.decode_single_segment_mb_per_s(p))
        << k;
  }
}

TEST(GpuModelFig4b, MacProBeatsGpuBelow8Kb) {
  const cpu::XeonModel xeon;
  for (std::size_t k : {128u, 512u, 1024u, 2048u, 4096u}) {
    const Params p{.n = 128, .k = k};
    EXPECT_LT(model_single_segment_decode(gtx(), p).mb_per_s,
              xeon.decode_single_segment_mb_per_s(p))
        << k;
  }
}

TEST(GpuModelFig4b, DecodeGrowsWithBlockSize) {
  double prev = 0;
  for (std::size_t k = 128; k <= 32768; k *= 2) {
    const double rate =
        model_single_segment_decode(gtx(), {.n = 128, .k = k}).mb_per_s;
    EXPECT_GT(rate, prev);
    prev = rate;
  }
  EXPECT_NEAR(prev, 100.0, 20.0);  // ~114 MB/s label at (128, 32 KB)
}

TEST(GpuModelFig4b, SmallBlockDecodeIsLaunchAndSyncBound) {
  // The 8800 GT achieves virtually the same decode rate as the GTX 280 up
  // to 1 KB blocks (Sec. 4.3) because both are bound by the same serial
  // per-block-arrival costs.
  for (std::size_t k : {128u, 512u, 1024u}) {
    const Params p{.n = 128, .k = k};
    const double gtx_rate = model_single_segment_decode(gtx(), p).mb_per_s;
    const double gt_rate =
        model_single_segment_decode(simgpu::geforce_8800gt(), p).mb_per_s;
    EXPECT_NEAR(gtx_rate / gt_rate, 1.0, 0.45) << k;
  }
}

// --- Fig. 9: multi-segment decoding -----------------------------------------

TEST(GpuModelFig9, SixSegmentPeakNear254) {
  const auto est = model_multi_segment_decode(gtx(), {.n = 128, .k = 32768}, 6);
  EXPECT_NEAR(est.mb_per_s, 254.0, 25.0);
}

TEST(GpuModelFig9, MultiSegmentGainOverSingleSegmentInPaperRange) {
  // "The advantage over single-segment GPU-based decoding is between a
  // factor of 2.7 and 27.6."
  for (std::size_t k = 128; k <= 32768; k *= 2) {
    const Params p{.n = 128, .k = k};
    const double multi = model_multi_segment_decode(gtx(), p, 3).mb_per_s;
    const double single = model_single_segment_decode(gtx(), p).mb_per_s;
    const double gain = multi / single;
    EXPECT_GT(gain, 2.4) << k;
    EXPECT_LT(gain, 29.0) << k;
  }
}

TEST(GpuModelFig9, SixSegmentsBeatThreeSegmentsMostAtSmallBlocks) {
  // "clearly defeats the decoding performance of 3 segments, by up to a
  // factor of 1.4" — gains shrink as k grows.
  const Params small{.n = 128, .k = 1024};
  const Params large{.n = 128, .k = 32768};
  const double gain_small =
      model_multi_segment_decode(gtx(), small, 6).mb_per_s /
      model_multi_segment_decode(gtx(), small, 3).mb_per_s;
  const double gain_large =
      model_multi_segment_decode(gtx(), large, 6).mb_per_s /
      model_multi_segment_decode(gtx(), large, 3).mb_per_s;
  EXPECT_GT(gain_small, 1.25);
  EXPECT_LT(gain_small, 2.0);
  EXPECT_LT(gain_large, gain_small);
  EXPECT_GT(gain_large, 1.0);
}

TEST(GpuModelFig9, Stage1ShareFallsWithBlockSize) {
  double prev_share = 1.0;
  for (std::size_t k = 128; k <= 32768; k *= 2) {
    const auto est = model_multi_segment_decode(gtx(), {.n = 128, .k = k}, 3);
    EXPECT_LT(est.stage1_share, prev_share) << k;
    prev_share = est.stage1_share;
  }
  EXPECT_LT(prev_share, 0.25);  // ~6-19% at the largest sizes in the paper
}

TEST(GpuModelFig9, SixSegmentsHaveLowerStage1ShareThanThree) {
  for (std::size_t k : {1024u, 4096u, 16384u}) {
    const Params p{.n = 128, .k = k};
    EXPECT_LT(model_multi_segment_decode(gtx(), p, 6).stage1_share,
              model_multi_segment_decode(gtx(), p, 3).stage1_share)
        << k;
  }
}

TEST(GpuModelFig9, GpuMultiSegBeatsMacProAbove256Bytes) {
  // "GTX 280 outperforms the Mac Pro for all configurations with block
  // sizes more than 256 bytes by a ratio between 1.3 and 5.3."
  const cpu::XeonModel xeon;
  for (std::size_t k : {1024u, 4096u, 16384u, 32768u}) {
    const Params p{.n = 128, .k = k};
    const double gpu_rate = model_multi_segment_decode(gtx(), p, 6).mb_per_s;
    const double cpu_rate = xeon.decode_multi_segment_mb_per_s(p);
    const double ratio = gpu_rate / cpu_rate;
    EXPECT_GT(ratio, 1.2) << k;
    EXPECT_LT(ratio, 9.0) << k;
  }
}

// --- Sec. 5.4.1: GPU vs CPU encode ratio ------------------------------------

TEST(GpuModel, EncodeAdvantageOverMacProAtLeast4x) {
  // "the GTX 280 encoding rate is around 4.3 times of a CPU-based solution
  // on our 8-core Mac Pro server."
  const cpu::XeonModel xeon;
  const Params p{.n = 128, .k = 4096};
  const double ratio =
      encode_mbps(EncodeScheme::kTable5, 128) /
      xeon.encode_mb_per_s(p, cpu::EncodePartitioning::kFullBlock);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 4.8);
}

// --- calibration cache ------------------------------------------------------

TEST(GpuModel, CalibrationFollowsTheSpecsValuesNotItsAddress) {
  // Services model short-lived copies of a spec (fleet slots, config
  // vectors). A copy of one device built where another device's copy used
  // to live must be modeled as the device it now is.
  EncodeModelOptions options;
  options.include_preprocessing = false;
  const Params p{.n = 16, .k = 256};
  const auto mb_per_s = [&](const simgpu::DeviceSpec& spec) {
    return model_encode_bandwidth(spec, EncodeScheme::kTable5, p, options)
        .mb_per_s;
  };
  std::optional<simgpu::DeviceSpec> copy;
  copy.emplace(simgpu::gtx280());
  const simgpu::DeviceSpec* address = &*copy;
  EXPECT_EQ(mb_per_s(*copy), mb_per_s(simgpu::gtx280()));
  copy.emplace(simgpu::geforce_8800gt());
  ASSERT_EQ(&*copy, address);
  EXPECT_EQ(mb_per_s(*copy), mb_per_s(simgpu::geforce_8800gt()));
  EXPECT_NE(mb_per_s(simgpu::geforce_8800gt()), mb_per_s(simgpu::gtx280()));
}

// --- analytic/functional cross-checks ---------------------------------------

TEST(GpuModelCrossCheck, AnalyticInversionMatchesFunctionalAluWork) {
  // Run a real multi-segment decode at a small size and compare measured
  // stage-1 ALU work with the analytic builder (within 30%: the analytic
  // form ignores pivot swaps and boundary effects).
  Rng rng(10);
  const Params params{.n = 16, .k = 128};
  coding::Segment segment = coding::Segment::random(params, rng);
  coding::Encoder encoder(segment);
  coding::CodedBatch batch(params, params.n);
  coding::BlockDecoder probe(params);
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
  GpuMultiSegmentDecoder decoder(gtx(), params);
  (void)decoder.decode_all({batch});
  const auto analytic = analytic_inversion_metrics(gtx(), params, 1);
  const double measured = decoder.stage1_metrics().alu_ops();
  EXPECT_NEAR(analytic.alu_ops() / measured, 1.0, 0.3);
}

TEST(GpuModelCrossCheck, AnalyticSingleSegmentMatchesFunctionalAluWork) {
  Rng rng(11);
  const Params params{.n = 16, .k = 256};
  coding::Segment segment = coding::Segment::random(params, rng);
  coding::Encoder encoder(segment);
  GpuSingleSegmentDecoder decoder(gtx(), params);
  while (!decoder.is_complete()) decoder.add(encoder.encode(rng));
  const auto analytic =
      analytic_single_segment_decode_metrics(gtx(), params, {});
  const double measured = decoder.metrics().alu_ops();
  EXPECT_NEAR(analytic.alu_ops() / measured, 1.0, 0.35);
}

}  // namespace
}  // namespace extnc::gpu
