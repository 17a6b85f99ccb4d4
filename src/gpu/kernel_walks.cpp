#include "gpu/kernel_walks.h"

#include "simgpu/static_model.h"

namespace extnc::gpu {

bool table_lookups_apply(EncodeScheme scheme, std::size_t k,
                         std::size_t threads, std::size_t half) {
  return scheme != EncodeScheme::kLoopBased && half >= 1 && half <= 16 &&
         (k / 4) % half == 0 && threads % half == 0 &&
         (scheme != EncodeScheme::kTable5 || half % kReplicatedTables == 0);
}

namespace {

// One scheme's entries: the scheme is a template parameter, so each
// scheme's gather compiles to one straight loop.
template <EncodeScheme kScheme>
void fill_table_lookups(TableLookups& lk, std::size_t half,
                        std::uint32_t banks, const std::uint8_t* src,
                        std::size_t n, std::size_t k) {
  constexpr bool tb0 = kScheme == EncodeScheme::kTable0;
  constexpr bool tb4 = kScheme == EncodeScheme::kTable4;
  constexpr bool tb5 = kScheme == EncodeScheme::kTable5;
  constexpr std::uint8_t sentinel =
      scheme_uses_shifted_log(kScheme) ? 0x00 : gf256::kLogZero;
  const std::uint8_t* log_table = gf256::tables().log;  // tb0's shared copy

  std::array<std::uintptr_t, 16> words;
  std::array<std::uintptr_t, 16> log_words;  // tb0's log lookup
  std::array<std::uint8_t, 16> log_s;
  std::size_t e = 0;  // lk.index(i, g, b), in loop order
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < lk.groups; ++g) {
      for (std::size_t b = 0; b < 4; ++b, ++e) {
        // One gather per entry: the live lanes' log-domain source bytes,
        // compacted without a branch on the bytes.
        const std::uint8_t* s = src + i * k + g * half * 4 + b;
        std::size_t live = 0;
        std::uint8_t top = 0;
        for (std::size_t l = 0; l < half; ++l) {
          std::uint8_t v = s[l * 4];
          if constexpr (tb0) {
            log_words[l] = (kLogBytesOffset + v) / 4;
            v = log_table[v];
          }
          const bool is_live = v != sentinel;
          log_s[live] = v;
          if constexpr (tb5) words[live] = tb5_word_index(v, l);
          if constexpr (tb4) top = std::max<std::uint8_t>(top, is_live ? v : 0);
          live += is_live;
        }
        if constexpr (tb0) {
          lk.log_degree[e] = static_cast<std::uint8_t>(
              simgpu::shared_group_degree(log_words.data(), half, banks));
        }
        lk.active[e] = static_cast<std::uint8_t>(live);
        if constexpr (tb4) {
          lk.row_top[i] = std::max(lk.row_top[i], top);
          continue;
        }
        // Residue r reads exp entry r + log_s; an empty group is degree 1.
        std::array<std::uint8_t, 4>& degrees = lk.exp_degree[e];
        if constexpr (tb5) {
          degrees.fill(static_cast<std::uint8_t>(
              simgpu::shared_group_degree(words.data(), live, banks)));
          continue;
        }
        for (std::size_t r = 0; r < 4; ++r) {
          for (std::size_t t = 0; t < live; ++t) {
            words[t] = (kExpBytesOffset + r + log_s[t]) / 4;
          }
          degrees[r] = static_cast<std::uint8_t>(
              simgpu::shared_group_degree(words.data(), live, banks));
        }
      }
    }
  }
}

}  // namespace

TableLookups table_lookups(const simgpu::DeviceSpec& spec,
                           EncodeScheme scheme, const std::uint8_t* src,
                           std::size_t n, std::size_t k) {
  const auto half = static_cast<std::size_t>(spec.half_warp);
  const auto banks = static_cast<std::uint32_t>(spec.shared_banks);
  EXTNC_CHECK(scheme != EncodeScheme::kLoopBased && half >= 1 && half <= 16 &&
              (k / 4) % half == 0);
  const bool tb0 = scheme == EncodeScheme::kTable0;
  const bool tb4 = scheme == EncodeScheme::kTable4;
  TableLookups lk;
  lk.groups = (k / 4) / half;
  lk.lanes = half;
  const std::size_t entries = n * lk.groups * 4;
  // Every sum stays below entries * 32 (two steps of <= 16 lanes, each of
  // degree <= 16, per entry).
  EXTNC_CHECK(entries <= UINT32_MAX / 32);
  lk.active.resize(entries);
  if (tb0) lk.log_degree.resize(entries);
  if (tb4) {
    lk.row_top.resize(n);
  } else {
    lk.exp_degree.resize(entries);
  }
  switch (scheme) {
    case EncodeScheme::kLoopBased:
      break;
    case EncodeScheme::kTable0:
      fill_table_lookups<EncodeScheme::kTable0>(lk, half, banks, src, n, k);
      break;
    case EncodeScheme::kTable1:
      fill_table_lookups<EncodeScheme::kTable1>(lk, half, banks, src, n, k);
      break;
    case EncodeScheme::kTable2:
      fill_table_lookups<EncodeScheme::kTable2>(lk, half, banks, src, n, k);
      break;
    case EncodeScheme::kTable3:
      fill_table_lookups<EncodeScheme::kTable3>(lk, half, banks, src, n, k);
      break;
    case EncodeScheme::kTable4:
      fill_table_lookups<EncodeScheme::kTable4>(lk, half, banks, src, n, k);
      break;
    case EncodeScheme::kTable5:
      fill_table_lookups<EncodeScheme::kTable5>(lk, half, banks, src, n, k);
      break;
  }

  lk.sums.resize(entries + 1);
  for (std::size_t e = 0; e < entries; ++e) {
    TableLookups::Sums sum = lk.sums[e];
    sum.live_lanes += lk.active[e];
    if (tb0) {
      sum.steps += 1;
      sum.accesses += half;
      for (auto& cycles : sum.cycles) cycles += lk.log_degree[e];
    }
    if (!tb4 && lk.active[e] != 0) {
      sum.steps += 1;
      sum.accesses += lk.active[e];
      for (std::size_t r = 0; r < 4; ++r) sum.cycles[r] += lk.exp_degree[e][r];
    }
    lk.sums[e + 1] = sum;
  }
  return lk;
}

}  // namespace extnc::gpu
