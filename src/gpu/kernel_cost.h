// Per-scheme scalar-instruction cost templates.
//
// Memory instructions (global loads/stores, shared accesses, texture
// fetches) are charged automatically by the executor, one issue slot each,
// and shared bank conflicts are *measured* from the kernels' actual access
// patterns. These templates cover everything else: loop control, address
// arithmetic, byte extraction/insertion, zero tests or their predicated
// forms, and the PTX-level overhead the paper alludes to when it notes
// that observed gains are "not proportional to the reduction in
// instruction count".
//
// Values are calibrated once against the Fig. 7 ladder on the GTX 280
// (loop-based 133 MB/s -> table-based-5 294 MB/s at n = 128); the ladder
// ordering itself is structural (each optimization removes the
// instructions or conflicts its section describes), only the absolute
// scale is fitted. tests/gpu/gpu_model_test.cpp pins the resulting
// bandwidths to the paper's numbers.
#pragma once

#include <cstdint>

#include "gf256/swar.h"
#include "gpu/encode_scheme.h"
#include "simgpu/executor.h"

namespace extnc::gpu {

struct EncodeCost {
  // Charged once per 4-byte output word (loop setup, accumulator, store
  // address math).
  double per_word = 0;
  // Charged per payload byte processed (table schemes).
  double per_byte = 0;
  // Charged per loop iteration of the loop-based multiply (bit test,
  // conditional xor of a packed word, packed xtime, shift) — the paper's
  // Sec. 4.3 estimate of ~10.5 instructions per iteration.
  double per_iteration = 0;
};

constexpr EncodeCost encode_cost(EncodeScheme scheme) {
  switch (scheme) {
    case EncodeScheme::kLoopBased:
      return {.per_word = 2.0, .per_byte = 0.0, .per_iteration = 10.5};
    case EncodeScheme::kTable0:
      // log[src] + log[c] + range fold + two sentinel tests with branches.
      return {.per_word = 8.0, .per_byte = 14.3, .per_iteration = 0.0};
    case EncodeScheme::kTable1:
      // One exp lookup per byte; tests against 0xff still branchy.
      return {.per_word = 8.0, .per_byte = 8.5, .per_iteration = 0.0};
    case EncodeScheme::kTable2:
      // Coefficient test hoisted out of the byte loop: one per word.
      return {.per_word = 9.0, .per_byte = 6.8, .per_iteration = 0.0};
    case EncodeScheme::kTable3:
      // Shifted-log zero sentinel: tests fold into predication.
      return {.per_word = 9.0, .per_byte = 6.0, .per_iteration = 0.0};
    case EncodeScheme::kTable4:
      // Texture path: simpler effective-address computation than shared.
      return {.per_word = 8.0, .per_byte = 6.2, .per_iteration = 0.0};
    case EncodeScheme::kTable5:
      // Word tables: no byte insert on the lookup result, but one extra
      // address op for the table interleave.
      return {.per_word = 8.0, .per_byte = 3.4, .per_iteration = 0.0};
  }
  return {};
}

// Preprocessing kernels (Sec. 5.1.1 steps 1 and 2): natural -> log domain,
// one table lookup (auto-charged) plus this much arithmetic per byte.
inline constexpr double kPreprocessPerByte = 2.0;

// Decode kernels use the loop-based multiply (tables would have to be
// reloaded every launch, and decoding is launch-per-coded-block):
// Sec. 4.2.2 / 5.2.
struct DecodeCost {
  double per_word = 2.0;        // per 4-byte word of a row operation
  double per_iteration = 10.5;  // loop-based multiply iteration
  double pivot_search_per_byte = 3.0;   // scan for first nonzero
  double pivot_reduce_per_thread = 6.0; // serial min-reduction step
  double pivot_reduce_atomic = 2.0;     // with atomicMin (Sec. 5.4.2)
};

inline constexpr DecodeCost kDecodeCost{};

// The decode kernels' loop-based multiply of a 4-byte word, charging its
// iterations and per-word cost in one count_alu call.
inline std::uint32_t mul_word_charged(simgpu::ThreadCtx& thread,
                                      std::uint8_t c, std::uint32_t w) {
  thread.count_alu(kDecodeCost.per_iteration * gf256::loop_iterations(c) +
                   kDecodeCost.per_word);
  return gf256::mul_byte_word(c, w);
}

}  // namespace extnc::gpu
