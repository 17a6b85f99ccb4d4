// TableLookups against a per-group reference: for every table scheme on
// every built-in device, each (row, group, byte) entry must equal what the
// shared degree rule gives for the words the kernel's lanes read, built
// lane by lane from the table layout with concrete coefficient logs.
//
// The loop-based encode walk's run charge against the per-row walk it
// replaced: both sinks must record exactly what charging every (half-warp,
// source row) pair one call at a time records.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gf256/gf.h"
#include "gf256/swar.h"
#include "gpu/kernel_cost.h"
#include "gpu/kernel_walks.h"
#include "gpu/table_layout.h"
#include "simgpu/device_spec.h"
#include "simgpu/executor.h"
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

// The loop-based encode walk as it charged before the run charge: every
// source row of every half-warp is one coefficient step, one source step
// and one ALU charge.
template <class Sink>
void per_row_loop_walk(Sink& sink, const EncodeWalk& w, std::size_t block) {
  const EncodeCost cost = encode_cost(EncodeScheme::kLoopBased);
  const std::size_t wpb = w.k / 4;
  std::array<std::uintptr_t, 16> addrs;
  std::array<std::size_t, 16> jv;
  std::array<std::size_t, 16> wv;
  for (std::size_t base = block * w.threads; base < w.total_words;
       base += w.stride) {
    const std::size_t lanes_end = std::min(w.threads, w.total_words - base);
    for (std::size_t l0 = 0; l0 < lanes_end; l0 += w.half) {
      const std::size_t cnt = std::min(w.half, lanes_end - l0);
      for (std::size_t l = 0; l < cnt; ++l) {
        jv[l] = (base + l0 + l) / wpb;
        wv[l] = (base + l0 + l) % wpb;
      }
      const bool one_block = jv[0] == jv[cnt - 1];
      auto charge = [&](Region region, std::uintptr_t first,
                        std::size_t row_stride, std::size_t word_bytes,
                        std::size_t access_bytes, std::uint64_t load,
                        std::uint64_t store) {
        if (one_block) {
          sink.global_span(region,
                           first + jv[0] * row_stride + wv[0] * word_bytes,
                           (cnt - 1) * word_bytes + access_bytes, cnt, load,
                           store);
          return;
        }
        for (std::size_t l = 0; l < cnt; ++l) {
          addrs[l] = first + jv[l] * row_stride + wv[l] * word_bytes;
        }
        sink.global_group(region, addrs.data(), cnt, access_bytes, load,
                          store);
      };
      for (std::size_t i = 0; i < w.n; ++i) {
        charge(Region::kCoefficients, w.coeff_addr + i, w.n, 0, 1, cnt, 0);
        charge(Region::kSource, w.src_addr + i * w.k, 0, 4, 4, cnt * 4, 0);
        std::uint64_t deci = 0;
        for (std::size_t l = 0; l < cnt; ++l) {
          deci += simgpu::KernelMetrics::deciops(
              cost.per_iteration *
              gf256::loop_iterations(w.coeffs[jv[l] * w.n + i]));
        }
        sink.alu(deci);
      }
      sink.alu(cnt * simgpu::KernelMetrics::deciops(cost.per_word));
      charge(Region::kOutput, w.out_addr, w.k, 4, 4, 0, cnt * 4);
    }
  }
  sink.barrier();
}

void expect_same_metrics(const simgpu::KernelMetrics& run,
                         const simgpu::KernelMetrics& ref,
                         const std::string& where) {
  EXPECT_EQ(run.alu_deciops, ref.alu_deciops) << where;
  EXPECT_EQ(run.global_load_bytes, ref.global_load_bytes) << where;
  EXPECT_EQ(run.global_store_bytes, ref.global_store_bytes) << where;
  EXPECT_EQ(run.global_transactions, ref.global_transactions) << where;
  EXPECT_EQ(run.shared_accesses, ref.shared_accesses) << where;
  EXPECT_EQ(run.shared_access_events, ref.shared_access_events) << where;
  EXPECT_EQ(run.shared_serialized_cycles, ref.shared_serialized_cycles)
      << where;
  EXPECT_EQ(run.texture_fetches, ref.texture_fetches) << where;
  EXPECT_EQ(run.texture_misses, ref.texture_misses) << where;
  EXPECT_EQ(run.atomic_ops, ref.atomic_ops) << where;
  EXPECT_EQ(run.barriers, ref.barriers) << where;
  EXPECT_EQ(run.kernel_launches, ref.kernel_launches) << where;
  EXPECT_EQ(run.blocks, ref.blocks) << where;
  EXPECT_EQ(run.threads_per_block, ref.threads_per_block) << where;
}

TEST(LoopRuns, MatchesPerRowReference) {
  const simgpu::DeviceSpec* devices[] = {&simgpu::gtx280(),
                                         &simgpu::geforce_8800gt(),
                                         &simgpu::hypothetical_64bit()};
  struct Geometry {
    const char* name;
    std::size_t n, k, count;
  };
  constexpr Geometry kGeometries[] = {
      {"aligned n=32 k=4096", 32, 4096, 4},
      // k % 64 == 8: eight alignment classes of source rows; 130 words per
      // coded block, so some half-warps straddle, and a partial last block.
      {"classes n=24 k=520", 24, 520, 8},
      // 560 words: blocks of 256, 256 and 48 threads.
      {"partial last block n=12 k=448", 12, 448, 5},
      // 9 words per coded block: most half-warps straddle.
      {"straddling n=10 k=36", 10, 36, 20},
  };
  struct Bases {
    std::uintptr_t src, coeffs, out;
  };
  // The models' zero-based offsets, and device-like bases at odd offsets
  // within a coalescing segment.
  constexpr Bases kBases[] = {{0, 0, 0}, {0x10020, 0x20007, 0x30010}};
  Rng rng(27);
  for (const simgpu::DeviceSpec* spec : devices) {
    for (const Geometry& g : kGeometries) {
      for (const int fill : {-1, 0x01, 0xff}) {
        std::vector<std::uint8_t> coeffs(g.count * g.n);
        for (auto& c : coeffs) {
          c = fill < 0 ? rng.next_byte() : static_cast<std::uint8_t>(fill);
        }
        for (const Bases& at : kBases) {
          const std::size_t total_words = g.count * (g.k / 4);
          const std::size_t threads = std::min<std::size_t>(256, total_words);
          const std::size_t blocks = (total_words + threads - 1) / threads;
          // The loop walk reads no source bytes.
          const EncodeWalk walk{
              .scheme = EncodeScheme::kLoopBased,
              .n = g.n,
              .k = g.k,
              .total_words = total_words,
              .threads = threads,
              .stride = blocks * threads,
              .half = static_cast<std::size_t>(spec->half_warp),
              .coeffs = coeffs.data(),
              .src_addr = at.src,
              .coeff_addr = at.coeffs,
              .out_addr = at.out};
          const std::string where = std::string(spec->name) + " " + g.name +
                                    " fill " + std::to_string(fill) +
                                    " src " + std::to_string(at.src);

          // Fast-path sink: one launch per walk.
          auto launch = [&](bool runs) {
            simgpu::Launcher launcher(*spec);
            launcher.launch({.blocks = blocks,
                             .threads_per_block = threads,
                             .check = simgpu::CheckToggle::kOff,
                             .shape = {}},
                            [&](simgpu::BlockCtx& block) {
                              BlockSink sink(block);
                              if (runs) {
                                encode_block_walk(sink, walk,
                                                  block.block_index());
                              } else {
                                per_row_loop_walk(sink, walk,
                                                  block.block_index());
                              }
                            });
            return launcher.metrics();
          };
          expect_same_metrics(launch(true), launch(false), "fast " + where);

          // Model sink: every block through one builder, as encode_model.
          ModelSink run(*spec, "encode");
          ModelSink ref(*spec, "encode");
          for (std::size_t b = 0; b < blocks; ++b) {
            run.set_block(b);
            ref.set_block(b);
            encode_block_walk(run, walk, b);
            per_row_loop_walk(ref, walk, b);
          }
          for (std::size_t r = 0; r < static_cast<std::size_t>(Region::kCount);
               ++r) {
            EXPECT_EQ(run.extent(static_cast<Region>(r)),
                      ref.extent(static_cast<Region>(r)))
                << "model " << where << " region " << r;
          }
          const simgpu::SegmentModel run_seg = run.finish(threads);
          const simgpu::SegmentModel ref_seg = ref.finish(threads);
          expect_same_metrics(run_seg.counters, ref_seg.counters,
                              "model " + where);
          EXPECT_EQ(run_seg.degree_events, ref_seg.degree_events)
              << "model " << where;
          EXPECT_EQ(run_seg.max_group_transactions,
                    ref_seg.max_group_transactions)
              << "model " << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace extnc::gpu
