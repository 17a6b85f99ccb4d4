#include "simgpu/static_model.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace extnc::simgpu {

std::uint64_t shared_group_degree(const std::uintptr_t* words,
                                  std::size_t count, std::uint32_t banks) {
  EXTNC_DASSERT(std::has_single_bit(banks) && banks <= 32);
  EXTNC_DASSERT(count <= 255);  // lane indices and bank counts are bytes
  // A lane adds one word to its bank when it is the lowest lane addressing
  // that word. `owner` maps each word to that lane: the stores run from the
  // highest lane down, so the lowest one lands last. Only entries the first
  // loop wrote are read, so the table stays uninitialised and a call costs
  // O(count); past the choice of path, no branch depends on the words.
  // Groups addressing a word past the table (none of the modeled kernels:
  // a 32 KiB scratchpad has 8192 words) compare lanes pairwise instead.
  constexpr std::uintptr_t kOwnerWords = 8192;
  std::array<std::uint8_t, kOwnerWords> owner;
  std::uintptr_t any = 0;
  for (std::size_t i = count; i-- > 0;) {
    any |= words[i];
    owner[words[i] & (kOwnerWords - 1)] = static_cast<std::uint8_t>(i);
  }
  const std::uintptr_t bank_mask = banks - 1;
  std::array<std::uint8_t, 32> in_bank{};
  if (any < kOwnerWords) {
    for (std::size_t i = 0; i < count; ++i) {
      in_bank[words[i] & bank_mask] += owner[words[i]] == i;
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t fresh = 1;
      for (std::size_t j = 0; j < i; ++j) fresh &= words[j] != words[i];
      in_bank[words[i] & bank_mask] += fresh;
    }
  }
  std::uint8_t degree = 1;
  for (const std::uint8_t in : in_bank) degree = std::max(degree, in);
  return degree;
}

std::uint64_t group_transactions(const std::uintptr_t* addrs,
                                 std::size_t count, std::size_t access_bytes,
                                 std::uint64_t segment_bytes) {
  // Mirror record_global: dedup distinct segments across the group. Groups
  // hold at most 16 lanes x 2 segments, so flat dedup is cheap.
  std::array<std::uint64_t, 64> segments;
  std::size_t live = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t first = coalesce_segment(addrs[i], segment_bytes);
    const std::uint64_t last =
        coalesce_segment(addrs[i] + access_bytes - 1, segment_bytes);
    for (std::uint64_t seg = first; seg <= last; ++seg) {
      bool seen = false;
      for (std::size_t j = 0; j < live; ++j) {
        if (segments[j] == seg) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        EXTNC_DASSERT(live < segments.size());
        segments[live++] = seg;
      }
    }
  }
  return live;
}

TextureTableModel texture_table_model(std::uintptr_t base, std::size_t bytes,
                                      const DeviceSpec& spec) {
  TextureTableModel model;
  const std::size_t line_bytes =
      std::max<std::size_t>(1, spec.texture_cache_line_bytes);
  const std::size_t num_lines = std::max<std::size_t>(
      1, spec.texture_cache_bytes / line_bytes);
  if (bytes == 0) return model;
  const std::uintptr_t first = base / line_bytes;
  const std::uintptr_t last = (base + bytes - 1) / line_bytes;
  model.lines = last - first + 1;
  // Consecutive lines map to consecutive sets (set = line % num_lines), so
  // the table is self-eviction-free exactly when it spans at most num_lines
  // lines — every touched line then owns a distinct set.
  model.locality = model.lines <= num_lines ? TextureLocality::kResident
                                            : TextureLocality::kStreaming;
  return model;
}

// ------------------------------------------------------------------------

KernelMetrics StaticKernelModel::totals() const {
  KernelMetrics m;
  for (const SegmentModel& segment : segments) m.merge(segment.counters);
  m.kernel_launches = 1;
  m.blocks = blocks;
  m.threads_per_block = threads_per_block;
  return m;
}

std::uint64_t StaticKernelModel::max_conflict_degree() const {
  std::uint64_t worst = 1;
  for (const SegmentModel& segment : segments) {
    worst = std::max(worst, segment.max_conflict_degree());
  }
  return worst;
}

std::uint64_t StaticKernelModel::max_group_transactions() const {
  std::uint64_t worst = 0;
  for (const SegmentModel& segment : segments) {
    worst = std::max(worst, segment.max_group_transactions);
  }
  return worst;
}

// ------------------------------------------------------------------------

void SegmentBuilder::add_shared_group(const std::uintptr_t* words,
                                      std::size_t count,
                                      std::uint64_t times) {
  add_shared_group_degree(
      shared_group_degree(words, count,
                          static_cast<std::uint32_t>(spec_->shared_banks)),
      count, times);
}

void SegmentBuilder::add_global_group(const std::uintptr_t* addrs,
                                      std::size_t count,
                                      std::size_t access_bytes,
                                      std::uint64_t load_bytes,
                                      std::uint64_t store_bytes,
                                      std::uint64_t times) {
  add_global_transactions(
      group_transactions(addrs, count, access_bytes,
                         spec_->coalesce_segment_bytes),
      count, load_bytes, store_bytes, times);
}

void SegmentBuilder::add_texture_fetches(std::uint64_t fetches,
                                         std::uint64_t misses) {
  model_.counters.texture_fetches += fetches;
  model_.counters.texture_misses += misses;
  model_.counters.alu_deciops += fetches * 10;
}

void SegmentBuilder::add_atomics(std::uint64_t ops) {
  model_.counters.atomic_ops += ops;
}

SegmentModel SegmentBuilder::finish(std::size_t step_width,
                                    std::uint64_t barriers) {
  model_.step_width = step_width;
  model_.counters.barriers += barriers;
  return std::move(model_);
}

}  // namespace extnc::simgpu
