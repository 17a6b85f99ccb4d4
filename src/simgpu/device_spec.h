// Device descriptions for the simulated GPUs.
//
// The paper evaluates on an NVIDIA GeForce GTX 280 (GT200: 30 SMs x 8 SPs,
// 1458 MHz shader clock) and compares against the GeForce 8800 GT (G92:
// 14 SMs x 8 SPs, 1500 MHz) of the authors' prior work. Numbers below are
// the public specs for those parts; the timing model consumes them
// directly, so adding a new device is a matter of adding a spec.
#pragma once

#include <cstddef>

namespace extnc::simgpu {

struct DeviceSpec {
  const char* name;
  int num_sms;
  int cores_per_sm;
  double core_clock_hz;
  // Sustainable device memory bandwidth, bytes/second. (The paper quotes
  // "155 GB/s" for the GTX 280; the part's official figure is 141.7.)
  double mem_bandwidth_bytes_per_s;
  std::size_t shared_mem_per_sm;  // bytes
  // 16 on both parts. A power of two, at most 32: the degree rule takes
  // a word's bank by mask and counts into 32 slots
  // (simgpu::shared_group_degree).
  int shared_banks;
  // Shared memory services one bank access per bank every N cycles.
  int shared_cycles_per_access;   // 2 (Sec. 5.1.2)
  int warp_size;
  int half_warp;                  // bank-conflict granularity
  int max_threads_per_block;
  std::size_t global_mem_bytes;
  bool has_shared_atomics;        // atomicMin on shared: GTX 280 only
  int sms_per_texture_cache;      // 3 SMs share one L1 tex cache on GT200
  std::size_t texture_cache_bytes;
  std::size_t texture_cache_line_bytes;
  // Global memory coalescing segment size (bytes); a power of two, so the
  // accounting takes segment indices by shift (simgpu::coalesce_segment).
  std::size_t coalesce_segment_bytes;

  // Peak scalar-instruction issue rate, instructions/second: every SP
  // retires one instruction per shader cycle. For the GTX 280 this gives
  // ~350 GIPS, matching the paper's "theoretical limit ... translates to
  // 360 GIPS" discussion in Sec. 4.3.
  double peak_ips() const {
    return static_cast<double>(num_sms) * cores_per_sm * core_clock_hz;
  }
};

// The two parts used in the paper's evaluation.
const DeviceSpec& gtx280();
const DeviceSpec& geforce_8800gt();

// A forward-looking spec the paper speculates about in Sec. 5.1.2: a GPU
// with 64-bit integer ALUs would double loop-based throughput. Used by the
// ablation bench only.
const DeviceSpec& hypothetical_64bit();

}  // namespace extnc::simgpu
