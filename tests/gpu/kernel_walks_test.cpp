// TableLookups against a per-group reference: for every table scheme on
// every built-in device, each (row, group, byte) entry must equal what the
// shared degree rule gives for the words the kernel's lanes read, built
// lane by lane from the table layout with concrete coefficient logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gf256/gf.h"
#include "gpu/kernel_walks.h"
#include "gpu/table_layout.h"
#include "simgpu/device_spec.h"
#include "simgpu/static_model.h"
#include "util/rng.h"

namespace extnc::gpu {
namespace {

std::uint64_t rule(const std::vector<std::uintptr_t>& words,
                   const simgpu::DeviceSpec& spec) {
  return simgpu::shared_group_degree(
      words.data(), words.size(),
      static_cast<std::uint32_t>(spec.shared_banks));
}

TEST(TableLookups, MatchesPerGroupReference) {
  constexpr EncodeScheme kSchemes[] = {
      EncodeScheme::kTable0, EncodeScheme::kTable1, EncodeScheme::kTable2,
      EncodeScheme::kTable3, EncodeScheme::kTable4, EncodeScheme::kTable5};
  const simgpu::DeviceSpec* devices[] = {&simgpu::gtx280(),
                                         &simgpu::geforce_8800gt(),
                                         &simgpu::hypothetical_64bit()};
  constexpr std::size_t n = 6;
  constexpr std::size_t k = 256;
  const std::uint8_t* log_table = gf256::tables().log;
  Rng rng(41);
  for (const simgpu::DeviceSpec* spec : devices) {
    const std::size_t half = static_cast<std::size_t>(spec->half_warp);
    for (const EncodeScheme scheme : kSchemes) {
      const bool tb0 = scheme == EncodeScheme::kTable0;
      const bool tb4 = scheme == EncodeScheme::kTable4;
      const bool tb5 = scheme == EncodeScheme::kTable5;
      const std::uint8_t sentinel =
          scheme_uses_shifted_log(scheme) ? 0x00 : gf256::kLogZero;
      // The accounting-domain source: natural bytes for tb0, log bytes
      // otherwise. Row 2 is all zero symbols, row 3 one repeated byte.
      std::vector<std::uint8_t> src(n * k);
      for (auto& byte : src) byte = rng.next_byte();
      std::fill_n(src.begin() + 2 * k, k, tb0 ? 0x00 : sentinel);
      std::fill_n(src.begin() + 3 * k, k, 0x37);

      const TableLookups lk = table_lookups(*spec, scheme, src.data(), n, k);
      ASSERT_EQ(lk.groups, k / 4 / half);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t g = 0; g < lk.groups; ++g) {
          for (std::size_t b = 0; b < 4; ++b) {
            const std::size_t e = lk.index(i, g, b);
            std::vector<std::uintptr_t> log_words;
            std::vector<std::uint8_t> log_s;
            std::vector<std::size_t> lanes;
            for (std::size_t l = 0; l < half; ++l) {
              std::uint8_t v = src[i * k + (g * half + l) * 4 + b];
              if (tb0) {
                log_words.push_back((kLogBytesOffset + v) / 4);
                v = log_table[v];
              }
              if (v == sentinel) continue;
              log_s.push_back(v);
              lanes.push_back(l);
            }
            const auto where = ::testing::Message()
                               << spec->name << " " << scheme_label(scheme)
                               << " row " << i << " group " << g
                               << " byte " << b;
            ASSERT_EQ(lk.active[e], log_s.size()) << where;
            if (i == 2) {
              ASSERT_EQ(lk.active[e], 0u) << where;
            }
            if (tb0) {
              ASSERT_EQ(lk.log_degree[e], rule(log_words, *spec)) << where;
            }
            if (tb4) {
              const std::uint8_t top =
                  log_s.empty() ? 0
                                : *std::max_element(log_s.begin(), log_s.end());
              ASSERT_EQ(lk.top[e], top) << where;
              continue;
            }
            // Concrete coefficient logs: every residue mod 4, each at a
            // low and a high log, so the entry stands for all of them.
            for (const std::size_t log_c : {0u, 1u, 2u, 3u, 197u, 250u,
                                            251u, 252u}) {
              std::vector<std::uintptr_t> words;
              for (std::size_t t = 0; t < log_s.size(); ++t) {
                const std::size_t idx = log_c + log_s[t];
                words.push_back(tb5 ? tb5_word_index(idx, lanes[t])
                                    : (kExpBytesOffset + idx) / 4);
              }
              ASSERT_EQ(lk.exp_degree[e][log_c % 4], rule(words, *spec))
                  << where << " log_c " << log_c;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace extnc::gpu
