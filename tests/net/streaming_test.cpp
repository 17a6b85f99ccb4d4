#include "net/streaming.h"

#include <gtest/gtest.h>

namespace extnc::net {
namespace {

// Pins the Sec. 5.1.1 streaming-server arithmetic to the paper's numbers.

TEST(Streaming, SegmentDurationIs5Point33Seconds) {
  // 512 KB at 768 kbps: "each segment contains content that lasts 5.33 s".
  EXPECT_NEAR(segment_duration_s(StreamConfig{}), 5.46, 0.2);
  // (The paper's 5.33 uses decimal kilobytes; binary gives 5.46.)
}

TEST(Streaming, LoopBasedRateServes1385Peers) {
  EXPECT_EQ(peers_by_coding_rate(133.0, StreamConfig{}), 1385u);
}

TEST(Streaming, FirstTableSchemeServes1844Peers) {
  // "now more than 1844 downstream peers can be supported" at ~177 MB/s.
  EXPECT_NEAR(static_cast<double>(peers_by_coding_rate(177.0, StreamConfig{})),
              1844, 15);
}

TEST(Streaming, BestSchemeServesMoreThan3000Peers) {
  EXPECT_GT(peers_by_coding_rate(294.0, StreamConfig{}), 3000u);
}

TEST(Streaming, BestSchemeSaturatesTwoGigabitNics) {
  EXPECT_GT(nics_saturated(294.0), 2.0);
  EXPECT_LT(nics_saturated(133.0), 1.1);
}

TEST(Streaming, CodedBlocksPerSegmentMatchesPaper) {
  // "serving so many peers ... requires generating at least 177,333 coded
  // blocks from every video segment" (1385 peers x 128 blocks).
  EXPECT_NEAR(static_cast<double>(
                  coded_blocks_per_segment(1385, StreamConfig{})),
              177333, 500);
}

TEST(Streaming, HundredsOfSegmentsFitGpuMemory) {
  // "1024 MB memory on the GTX 280 is able to easily accommodate hundreds
  // of such segments."
  const std::size_t segments =
      segments_in_memory(1024ull * 1024 * 1024, StreamConfig{});
  EXPECT_GE(segments, 2000u);  // 1 GB / 512 KB
}

TEST(Streaming, NicLimitIndependentOfCodingRate) {
  EXPECT_EQ(peers_by_nic(StreamConfig{}, 1), 1302u);
  EXPECT_EQ(peers_by_nic(StreamConfig{}, 2), 2604u);
}

TEST(Streaming, HigherStreamRateServesFewerPeers) {
  StreamConfig hd;
  hd.stream_kbps = 2000;
  EXPECT_LT(peers_by_coding_rate(294.0, hd),
            peers_by_coding_rate(294.0, StreamConfig{}));
}

}  // namespace
}  // namespace extnc::net
