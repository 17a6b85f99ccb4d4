#include "gpu/kernel_walks.h"

#include "simgpu/static_model.h"

namespace extnc::gpu {

bool table_lookups_apply(EncodeScheme scheme, std::size_t k,
                         std::size_t threads, std::size_t half) {
  return scheme != EncodeScheme::kLoopBased && half >= 1 && half <= 16 &&
         (k / 4) % half == 0 && threads % half == 0 &&
         (scheme != EncodeScheme::kTable5 || half % kReplicatedTables == 0);
}

TableLookups table_lookups(const simgpu::DeviceSpec& spec,
                           EncodeScheme scheme, const std::uint8_t* src,
                           std::size_t n, std::size_t k) {
  const auto half = static_cast<std::size_t>(spec.half_warp);
  const auto banks = static_cast<std::uint32_t>(spec.shared_banks);
  EXTNC_CHECK(scheme != EncodeScheme::kLoopBased && half >= 1 && half <= 16 &&
              (k / 4) % half == 0);
  const bool tb0 = scheme == EncodeScheme::kTable0;
  const bool tb4 = scheme == EncodeScheme::kTable4;
  const bool tb5 = scheme == EncodeScheme::kTable5;
  const std::uint8_t sentinel =
      scheme_uses_shifted_log(scheme) ? 0x00 : gf256::kLogZero;
  const std::uint8_t* log_table = gf256::tables().log;  // tb0's shared copy

  TableLookups lk;
  lk.groups = (k / 4) / half;
  const std::size_t entries = n * lk.groups * 4;
  lk.active.assign(entries, 0);
  if (tb0) lk.log_degree.assign(entries, 1);
  if (tb4) {
    lk.top.assign(entries, 0);
  } else {
    lk.exp_degree.assign(entries, {1, 1, 1, 1});
  }

  std::array<std::uintptr_t, 16> words;
  std::array<std::uint8_t, 16> log_s;
  std::array<std::size_t, 16> lane_of;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < lk.groups; ++g) {
      const std::uint8_t* s = src + i * k + g * half * 4;
      for (std::size_t b = 0; b < 4; ++b) {
        const std::size_t e = lk.index(i, g, b);
        if (tb0) {
          for (std::size_t l = 0; l < half; ++l) {
            words[l] = (kLogBytesOffset + s[l * 4 + b]) / 4;
          }
          lk.log_degree[e] = static_cast<std::uint8_t>(
              simgpu::shared_group_degree(words.data(), half, banks));
        }
        std::size_t live = 0;
        for (std::size_t l = 0; l < half; ++l) {
          std::uint8_t v = s[l * 4 + b];
          if (tb0) v = log_table[v];
          if (v == sentinel) continue;
          log_s[live] = v;
          lane_of[live] = l;
          ++live;
        }
        lk.active[e] = static_cast<std::uint8_t>(live);
        if (live == 0) continue;
        if (tb4) {
          lk.top[e] = *std::max_element(log_s.begin(), log_s.begin() + live);
          continue;
        }
        for (std::size_t r = 0; r < (tb5 ? 1 : 4); ++r) {
          for (std::size_t t = 0; t < live; ++t) {
            const std::size_t idx = r + log_s[t];
            words[t] = tb5 ? tb5_word_index(idx, lane_of[t])
                           : (kExpBytesOffset + idx) / 4;
          }
          lk.exp_degree[e][r] = static_cast<std::uint8_t>(
              simgpu::shared_group_degree(words.data(), live, banks));
        }
        if (tb5) lk.exp_degree[e].fill(lk.exp_degree[e][0]);
      }
    }
  }
  return lk;
}

}  // namespace extnc::gpu
