// Unit tests for the closed-form access-pattern rules in static_model.h:
// each rule is held against a brute-force reference that mirrors the
// executor's dynamic dedup exactly, plus the structural invariants the
// kernel models rely on (uniform-shift degree invariance, SegmentBuilder
// histogram bookkeeping).
#include "simgpu/static_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "simgpu/device_spec.h"
#include "util/rng.h"

namespace extnc::simgpu {
namespace {

// Reference degree: the rule as first written — a quadratic dedup that
// skips a lane when an earlier lane addressed the same word, banks by
// remainder, worst bank, minimum 1.
std::uint64_t ref_degree(const std::vector<std::uintptr_t>& words,
                         std::uint32_t banks) {
  std::array<std::uint32_t, 32> bank_words{};
  std::uint64_t degree = 1;
  for (std::size_t i = 0; i < words.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (words[j] == words[i]) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const std::uint32_t in_bank = ++bank_words[(words[i] % banks) % 32];
    degree = std::max<std::uint64_t>(degree, in_bank);
  }
  return degree;
}

// Reference transactions: record_global's dedup — both ends of every
// access contribute a segment, distinct segments are counted once.
std::uint64_t ref_transactions(const std::vector<std::uintptr_t>& addrs,
                               std::size_t access_bytes,
                               std::uint64_t segment_bytes) {
  std::set<std::uintptr_t> segments;
  for (std::uintptr_t a : addrs) {
    segments.insert(a / segment_bytes);
    segments.insert((a + access_bytes - 1) / segment_bytes);
  }
  return segments.size();
}

TEST(SharedGroupDegree, BroadcastIsDegreeOne) {
  std::vector<std::uintptr_t> words(16, 7);
  EXPECT_EQ(shared_group_degree(words.data(), words.size(), 16), 1u);
}

TEST(SharedGroupDegree, DistinctWordsOneBankSerializeFully) {
  // Words 16 apart all land in bank 0 of a 16-bank device.
  std::vector<std::uintptr_t> words;
  for (std::size_t l = 0; l < 16; ++l) words.push_back(l * 16);
  EXPECT_EQ(shared_group_degree(words.data(), words.size(), 16), 16u);
}

TEST(SharedGroupDegree, ConsecutiveWordsConflictFree) {
  std::vector<std::uintptr_t> words;
  for (std::size_t l = 0; l < 16; ++l) words.push_back(100 + l);
  EXPECT_EQ(shared_group_degree(words.data(), words.size(), 16), 1u);
}

// Every lane count a half-warp step can have, both bank counts, and four
// word classes: table indices, words past any bounded fast path (at and
// above 2^32), groups straddling that bound, and groups with many
// duplicates drawn from 2-4 values.
TEST(SharedGroupDegree, MatchesReferenceOnRandomGroups) {
  static_assert(sizeof(std::uintptr_t) == 8);
  constexpr std::uintptr_t kHigh = std::uintptr_t{1} << 32;
  Rng rng(21);
  for (std::size_t count = 0; count <= 16; ++count) {
    for (const std::uint32_t banks : {16u, 32u}) {
      for (int word_class = 0; word_class < 4; ++word_class) {
        for (int trial = 0; trial < 40; ++trial) {
          std::vector<std::uintptr_t> pool(2 + rng.next_below(3));
          for (auto& v : pool) v = rng.next_below(trial % 2 ? 64 : kHigh);
          std::vector<std::uintptr_t> words(count);
          for (auto& w : words) {
            switch (word_class) {
              case 0:  // table indices
                w = rng.next_below(trial % 2 ? 256 : 4200);
                break;
              case 1:  // large words
                w = kHigh + rng.next_below(trial % 2 ? 512 : kHigh);
                break;
              case 2:  // one group across small and large words
                w = rng.next_below(2) ? rng.next_below(8192)
                                      : 8192 + rng.next_below(64);
                break;
              default:  // duplicates
                w = pool[rng.next_below(pool.size())];
            }
          }
          EXPECT_EQ(shared_group_degree(words.data(), count, banks),
                    ref_degree(words, banks))
              << "count " << count << " banks " << banks << " class "
              << word_class << " trial " << trial;
        }
      }
    }
  }
}

// The invariance the cached table profile rests on: adding one uniform
// offset to every word in a group preserves distinctness and rotates
// banks together, so the serialization degree cannot change. (This is why
// exp-lookup degrees depend on log_c only through its word offset class.)
TEST(SharedGroupDegree, UniformShiftLeavesDegreeInvariant) {
  Rng rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t count = 1 + rng.next_below(16);
    std::vector<std::uintptr_t> words(count);
    for (auto& w : words) w = rng.next_below(512);
    const std::uint64_t base = shared_group_degree(words.data(), count, 16);
    for (std::uintptr_t shift : {1u, 2u, 8u, 64u, 100u}) {
      std::vector<std::uintptr_t> shifted = words;
      for (auto& w : shifted) w += shift;
      EXPECT_EQ(shared_group_degree(shifted.data(), count, 16), base)
          << "trial " << trial << " shift " << shift;
    }
  }
}

TEST(SpanTransactions, MatchesReferencePerByteDedup) {
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uintptr_t addr = rng.next_below(4096);
    const std::size_t span = 1 + rng.next_below(256);
    // A contiguous span is equivalent to byte accesses at every address.
    std::vector<std::uintptr_t> addrs;
    for (std::size_t b = 0; b < span; ++b) addrs.push_back(addr + b);
    EXPECT_EQ(span_transactions(addr, span, 64),
              ref_transactions(addrs, 1, 64))
        << "addr " << addr << " span " << span;
  }
}

TEST(SpanTransactions, AlignedSpanIsMinimal) {
  EXPECT_EQ(span_transactions(0, 64, 64), 1u);
  EXPECT_EQ(span_transactions(64, 64, 64), 1u);
  EXPECT_EQ(span_transactions(60, 8, 64), 2u);  // straddles one boundary
  EXPECT_EQ(span_transactions(0, 1, 64), 1u);   // broadcast byte
}

TEST(GroupTransactions, MatchesReferenceOnScatteredGroups) {
  Rng rng(24);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t count = 1 + rng.next_below(16);
    const std::size_t access = (trial % 3 == 0) ? 1 : 4;
    std::vector<std::uintptr_t> addrs(count);
    for (auto& a : addrs) a = rng.next_below(8192);
    EXPECT_EQ(group_transactions(addrs.data(), count, access, 64),
              ref_transactions(addrs, access, 64))
        << "trial " << trial;
  }
}

TEST(TextureTableModel, SmallAlignedTableIsResident) {
  const DeviceSpec spec = gtx280();
  // The 512-entry exp table at a 64-byte-aligned base: 16 lines of 32
  // bytes, each in its own set of the direct-mapped cache.
  const TextureTableModel model = texture_table_model(0, 512, spec);
  EXPECT_EQ(model.lines, 16u);
  EXPECT_EQ(model.locality, TextureLocality::kResident);
}

TEST(TextureTableModel, SelfAliasingTableStreams) {
  const DeviceSpec spec = gtx280();
  // A table larger than the whole per-TPC cache must alias itself.
  const TextureTableModel model =
      texture_table_model(0, spec.texture_cache_bytes + 32, spec);
  EXPECT_EQ(model.locality, TextureLocality::kStreaming);
}

TEST(SegmentBuilder, HistogramInvariantsHold) {
  const DeviceSpec spec = gtx280();
  SegmentBuilder builder(spec, "test");
  const std::uintptr_t broadcast[4] = {9, 9, 9, 9};
  builder.add_shared_group(broadcast, 4, 3);  // degree 1, x3
  const std::uintptr_t conflicted[4] = {0, 16, 32, 48};
  builder.add_shared_group(conflicted, 4);  // degree 4
  builder.add_global_span(0, 64, 16, 64, 0);
  builder.add_alu_deciops(120);
  const SegmentModel seg = builder.finish(256, 2);

  EXPECT_EQ(seg.counters.shared_access_events, 4u);
  EXPECT_EQ(seg.counters.shared_accesses, 16u);
  EXPECT_EQ(seg.counters.shared_serialized_cycles, 3u * 1 + 4u);
  std::uint64_t events = 0, cycles = 0;
  for (std::size_t d = 1; d <= kMaxConflictDegree; ++d) {
    events += seg.degree_events[d];
    cycles += d * seg.degree_events[d];
  }
  EXPECT_EQ(events, seg.counters.shared_access_events);
  EXPECT_EQ(cycles, seg.counters.shared_serialized_cycles);
  EXPECT_EQ(seg.max_conflict_degree(), 4u);
  EXPECT_EQ(seg.counters.barriers, 2u);
  EXPECT_EQ(seg.step_width, 256u);
  // Shared accesses and global instructions each charge 1 op (10 deci).
  EXPECT_EQ(seg.counters.alu_deciops, 16u * 10 + 16u * 10 + 120u);
}

TEST(StaticKernelModel, TotalsMergeSegmentsAndGeometry) {
  const DeviceSpec spec = gtx280();
  StaticKernelModel model;
  model.blocks = 10;
  model.threads_per_block = 256;
  {
    SegmentBuilder builder(spec, "a");
    builder.add_global_span(0, 128, 32, 128, 0);
    model.segments.push_back(builder.finish(256, 10));
  }
  {
    SegmentBuilder builder(spec, "b");
    builder.add_global_span(0, 64, 16, 0, 64);
    model.segments.push_back(builder.finish(256, 10));
  }
  const KernelMetrics totals = model.totals();
  EXPECT_EQ(totals.kernel_launches, 1u);
  EXPECT_EQ(totals.blocks, 10u);
  EXPECT_EQ(totals.threads_per_block, 256u);
  EXPECT_EQ(totals.global_load_bytes, 128u);
  EXPECT_EQ(totals.global_store_bytes, 64u);
  EXPECT_EQ(totals.barriers, 20u);
  EXPECT_EQ(totals.global_transactions, 2u + 1u);
}

}  // namespace
}  // namespace extnc::simgpu
