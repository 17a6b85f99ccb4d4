#include "net/streaming.h"

#include <cmath>

namespace extnc::net {

double segment_duration_s(const StreamConfig& config) {
  const double bits = static_cast<double>(config.segment.segment_bytes()) * 8;
  return bits / (config.stream_kbps * 1000.0);
}

std::size_t peers_by_coding_rate(double coding_mb_per_s,
                                 const StreamConfig& config) {
  const double bits_per_s = coding_mb_per_s * 1e6 * 8;
  return static_cast<std::size_t>(bits_per_s / (config.stream_kbps * 1000.0));
}

std::size_t peers_by_nic(const StreamConfig& config, std::size_t nics) {
  const double bits_per_s = kNicGbps * 1e9 * static_cast<double>(nics);
  return static_cast<std::size_t>(bits_per_s / (config.stream_kbps * 1000.0));
}

double nics_saturated(double coding_mb_per_s) {
  return coding_mb_per_s * 1e6 * 8 / (kNicGbps * 1e9);
}

std::size_t coded_blocks_per_segment(std::size_t peers,
                                     const StreamConfig& config) {
  return peers * config.segment.n;
}

std::size_t segments_in_memory(std::size_t memory_bytes,
                               const StreamConfig& config) {
  return memory_bytes / config.segment.segment_bytes();
}

}  // namespace extnc::net
