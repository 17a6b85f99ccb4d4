#include "simgpu/device_spec.h"

#include <bit>

namespace extnc::simgpu {

const DeviceSpec& gtx280() {
  static constexpr DeviceSpec spec{
      .name = "GTX 280",
      .num_sms = 30,
      .cores_per_sm = 8,
      .core_clock_hz = 1.458e9,
      .mem_bandwidth_bytes_per_s = 141.7e9,
      .shared_mem_per_sm = 16 * 1024,
      .shared_banks = 16,
      .shared_cycles_per_access = 2,
      .warp_size = 32,
      .half_warp = 16,
      .max_threads_per_block = 512,
      .global_mem_bytes = 1024ull * 1024 * 1024,
      .has_shared_atomics = true,
      .sms_per_texture_cache = 3,
      .texture_cache_bytes = 8 * 1024,
      .texture_cache_line_bytes = 32,
      .coalesce_segment_bytes = 64,
  };
  static_assert(std::has_single_bit(spec.coalesce_segment_bytes));
  static_assert(
      std::has_single_bit(static_cast<unsigned>(spec.shared_banks)) &&
      spec.shared_banks <= 32);
  return spec;
}

const DeviceSpec& geforce_8800gt() {
  static constexpr DeviceSpec spec{
      .name = "8800 GT",
      .num_sms = 14,
      .cores_per_sm = 8,
      .core_clock_hz = 1.5e9,
      .mem_bandwidth_bytes_per_s = 57.6e9,
      .shared_mem_per_sm = 16 * 1024,
      .shared_banks = 16,
      .shared_cycles_per_access = 2,
      .warp_size = 32,
      .half_warp = 16,
      .max_threads_per_block = 512,
      .global_mem_bytes = 512ull * 1024 * 1024,
      .has_shared_atomics = false,
      .sms_per_texture_cache = 2,
      .texture_cache_bytes = 8 * 1024,
      .texture_cache_line_bytes = 32,
      .coalesce_segment_bytes = 64,
  };
  static_assert(std::has_single_bit(spec.coalesce_segment_bytes));
  static_assert(
      std::has_single_bit(static_cast<unsigned>(spec.shared_banks)) &&
      spec.shared_banks <= 32);
  return spec;
}

const DeviceSpec& hypothetical_64bit() {
  // GTX 280 with 64-bit integer datapaths: the loop-based kernel would do
  // byte-by-8-byte multiplies, halving its per-byte instruction count.
  // Everything else unchanged.
  static constexpr DeviceSpec spec{
      .name = "hypothetical 64-bit GPU",
      .num_sms = 30,
      .cores_per_sm = 8,
      .core_clock_hz = 1.458e9,
      .mem_bandwidth_bytes_per_s = 141.7e9,
      .shared_mem_per_sm = 32 * 1024,
      .shared_banks = 16,
      .shared_cycles_per_access = 2,
      .warp_size = 32,
      .half_warp = 16,
      .max_threads_per_block = 512,
      .global_mem_bytes = 2048ull * 1024 * 1024,
      .has_shared_atomics = true,
      .sms_per_texture_cache = 3,
      .texture_cache_bytes = 8 * 1024,
      .texture_cache_line_bytes = 32,
      .coalesce_segment_bytes = 64,
  };
  static_assert(std::has_single_bit(spec.coalesce_segment_bytes));
  static_assert(
      std::has_single_bit(static_cast<unsigned>(spec.shared_banks)) &&
      spec.shared_banks <= 32);
  return spec;
}

}  // namespace extnc::simgpu
