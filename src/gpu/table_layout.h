// Shared-memory layout of the table-based encode kernels (Sec. 5.1), in
// one place so the kernels (gpu_encoder.cpp), the static kernel models
// (kernel_audit.cpp) and the encode walk's TableLookups all index the
// same bytes. A layout change here changes every consumer together — the
// static-vs-dynamic equivalence tests then hold them to the same numbers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace extnc::gpu {

// Byte-table layout (tb0-tb4): the 512-entry exp table at offset 0; tb0
// additionally keeps the 256-entry log table behind it.
inline constexpr std::size_t kExpBytesOffset = 0;    // 512 bytes
inline constexpr std::size_t kLogBytesOffset = 512;  // 256 bytes (kTable0)
inline constexpr std::size_t kExpTableEntries = 512;

// tb5: eight word-width copies of the exp table, interleaved so copy c of
// entry i lives at word index i * 8 + c — a thread using copy (lane % 8)
// then only ever touches two banks.
inline constexpr std::size_t kReplicatedTables = 8;

// Word index a lane reads for exp entry `idx` under the tb5 layout.
inline constexpr std::size_t tb5_word_index(std::size_t idx,
                                            std::size_t lane) {
  return idx * kReplicatedTables + lane % kReplicatedTables;
}

// Shared scratchpad bytes each scheme's block actually uses.
inline constexpr std::size_t table_shared_bytes_tb5() {
  return kExpTableEntries * kReplicatedTables * 4;
}
inline constexpr std::size_t table_shared_bytes_byte(bool with_log_table) {
  return with_log_table ? kLogBytesOffset + 256 : kExpTableEntries;
}

}  // namespace extnc::gpu
