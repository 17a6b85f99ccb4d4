// Streaming-server capacity math and simulation (Sec. 5.1.1 / 5.1.2).
//
// The paper's scenario: 512 KB media segments (128 blocks of 4 KB), a
// 768 kbps stream (5.33 s of content per segment), and a server whose
// encoder produces coded blocks for downstream peers. The number of peers
// a server sustains is coding_bandwidth / stream_rate — 1385 peers at the
// loop-based 133 MB/s, ~1844 at the first table-based scheme, and 3000+ at
// the final 294 MB/s (Sec. 5.1.3). Note the paper computes these with
// decimal megabytes (133e6 * 8 / 768e3 = 1385), which we follow here.
#pragma once

#include <cstddef>

#include "coding/params.h"

namespace extnc::net {

// Line rate of one gigabit interface.
inline constexpr double kNicGbps = 1.0;

struct StreamConfig {
  coding::Params segment{.n = 128, .k = 4096};  // 512 KB media segment
  double stream_kbps = 768.0;                   // high-quality video rate
};

// Seconds of content per segment (the client-side buffering delay).
double segment_duration_s(const StreamConfig& config);

// Peers sustainable by coding bandwidth alone (MB/s, decimal MB as the
// paper computes).
std::size_t peers_by_coding_rate(double coding_mb_per_s,
                                 const StreamConfig& config);

// Peers sustainable by `nics` gigabit interfaces.
std::size_t peers_by_nic(const StreamConfig& config, std::size_t nics = 1);

// Gigabit interfaces the coding bandwidth can saturate.
double nics_saturated(double coding_mb_per_s);

// Coded blocks the server must generate per segment duration to feed
// `peers` (each peer needs n blocks per segment; the paper's "at least
// 177,333 coded blocks from every video segment" at 1385 peers).
std::size_t coded_blocks_per_segment(std::size_t peers,
                                     const StreamConfig& config);

// Segments that fit in a given GPU memory (the paper: hundreds of
// segments fit the GTX 280's 1 GB).
std::size_t segments_in_memory(std::size_t memory_bytes,
                               const StreamConfig& config);

}  // namespace extnc::net
