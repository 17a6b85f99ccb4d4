// TableLookups against a per-group reference: for every table scheme on
// every built-in device, each (row, group, byte) entry must equal what the
// shared degree rule gives for the words the kernel's lanes read, built
// lane by lane from the table layout with concrete coefficient logs, and
// every prefix sum and row top must equal the sums of those entries.
//
// The encode walk's run charges against the walks they replaced: both
// sinks must record exactly what charging every (half-warp, source row)
// pair one call at a time records, for the loop-based kernel and for the
// table schemes' aligned geometries.
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
      ASSERT_EQ(lk.lanes, half);
      const std::size_t entries = n * lk.groups * 4;
      ASSERT_EQ(lk.sums.size(), entries + 1);
      ASSERT_EQ(lk.row_top.size(), tb4 ? n : 0);
      // Running sums of the reference entries, in index order.
      std::uint64_t live_lanes = 0;
      std::uint64_t steps = 0;
      std::uint64_t accesses = 0;
      std::array<std::uint64_t, 4> cycles{};
      auto check_sums = [&](std::size_t e, const ::testing::Message& where) {
        ASSERT_EQ(lk.sums[e].live_lanes, live_lanes) << where;
        ASSERT_EQ(lk.sums[e].steps, steps) << where;
        ASSERT_EQ(lk.sums[e].accesses, accesses) << where;
        for (std::size_t r = 0; r < 4; ++r) {
          ASSERT_EQ(lk.sums[e].cycles[r], cycles[r]) << where << " r " << r;
        }
      };
      for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t row_top = 0;
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
            ASSERT_NO_FATAL_FAILURE(check_sums(e, where));
            ASSERT_EQ(lk.active[e], log_s.size()) << where;
            if (i == 2) {
              ASSERT_EQ(lk.active[e], 0u) << where;
            }
            live_lanes += log_s.size();
            if (tb0) {
              ASSERT_EQ(lk.log_degree[e], rule(log_words, *spec)) << where;
              steps += 1;
              accesses += half;
              for (auto& c : cycles) c += rule(log_words, *spec);
            }
            if (tb4) {
              for (const std::uint8_t v : log_s) {
                row_top = std::max(row_top, v);
              }
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
              if (log_c < 4 && !log_s.empty()) {
                cycles[log_c] += rule(words, *spec);
              }
            }
            if (!log_s.empty()) {
              steps += 1;
              accesses += log_s.size();
            }
          }
        }
        if (tb4) {
          ASSERT_EQ(lk.row_top[i], row_top)
              << spec->name << " " << scheme_label(scheme) << " row " << i;
        }
        if (i == 2 && tb4) {
          ASSERT_EQ(lk.row_top[i], 0u);
        }
      }
      ASSERT_NO_FATAL_FAILURE(check_sums(
          entries, ::testing::Message() << spec->name << " "
                                        << scheme_label(scheme) << " end"));
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

// The table-scheme encode walk as it charged aligned geometries before the
// run charge: every half-warp of every stride step, one source row at a
// time, with the lookup steps read from TableLookups entry by entry; tb4
// fetches lane by lane until the unit is warm, then each entry in bulk at
// its own top byte.
template <class Sink>
void per_half_warp_table_walk(Sink& sink, const EncodeWalk& w,
                              std::size_t block) {
  const TableLookups& lk = *w.lookups;
  const EncodeCost cost = encode_cost(w.scheme);
  const bool tb0 = w.scheme == EncodeScheme::kTable0;
  const bool tb4 = w.scheme == EncodeScheme::kTable4;
  const std::uint8_t sentinel =
      scheme_uses_shifted_log(w.scheme) ? 0x00 : gf256::kLogZero;
  const std::uint8_t* log_table = gf256::tables().log;
  const std::size_t wpb = w.k / 4;
  const std::size_t cnt = w.half;
  for (std::size_t base = block * w.threads; base < w.total_words;
       base += w.stride) {
    const std::size_t lanes_end = std::min(w.threads, w.total_words - base);
    for (std::size_t l0 = 0; l0 < lanes_end; l0 += w.half) {
      const std::size_t j = (base + l0) / wpb;
      const std::size_t word = (base + l0) % wpb;
      for (std::size_t i = 0; i < w.n; ++i) {
        sink.global_span(Region::kCoefficients, w.coeff_addr + j * w.n + i, 1,
                         cnt, cnt, 0);
        const std::uint8_t c = w.coeffs[j * w.n + i];
        const std::uint8_t log_c = tb0 ? log_table[c] : c;
        if (tb0) sink.shared_degree(1, cnt);
        sink.global_span(Region::kSource, w.src_addr + i * w.k + word * 4,
                         cnt * 4, cnt, cnt * 4, 0);
        sink.alu(cnt * simgpu::KernelMetrics::deciops(cost.per_word));
        if (log_c == sentinel) continue;
        const std::size_t e = lk.index(i, word / w.half, 0);
        for (std::size_t b = 0; b < 4; ++b) {
          if (tb0) sink.shared_degree(lk.log_degree[e + b], cnt);
          sink.alu(cnt * simgpu::KernelMetrics::deciops(cost.per_byte));
          const std::size_t live = lk.active[e + b];
          if (live == 0) continue;
          if (!tb4) {
            sink.shared_degree(lk.exp_degree[e + b][log_c % 4], live);
            continue;
          }
          const std::uint8_t* bytes = w.src + i * w.k + word * 4 + b;
          if (sink.texture_warm()) {
            std::uint8_t top = 0;
            for (std::size_t l = 0; l < cnt; ++l) {
              if (bytes[l * 4] != sentinel) {
                top = std::max(top, bytes[l * 4]);
              }
            }
            sink.texture_bulk(live, w.tex_addr + log_c + top);
            continue;
          }
          for (std::size_t l = 0; l < cnt; ++l) {
            if (bytes[l * 4] == sentinel) continue;
            sink.texture_fetch(w.tex_addr + log_c + bytes[l * 4]);
          }
        }
      }
      sink.global_span(Region::kOutput, w.out_addr + j * w.k + word * 4,
                       cnt * 4, cnt, 0, cnt * 4);
    }
  }
  sink.barrier();
}

TEST(TableRuns, MatchesPerHalfWarpReference) {
  constexpr EncodeScheme kSchemes[] = {
      EncodeScheme::kTable0, EncodeScheme::kTable1, EncodeScheme::kTable2,
      EncodeScheme::kTable3, EncodeScheme::kTable4, EncodeScheme::kTable5};
  const simgpu::DeviceSpec* devices[] = {&simgpu::gtx280(),
                                         &simgpu::geforce_8800gt(),
                                         &simgpu::hypothetical_64bit()};
  struct Geometry {
    const char* name;
    std::size_t n, k, count;
  };
  constexpr Geometry kGeometries[] = {
      {"paper n=32 k=4096", 32, 4096, 4},
      // 64 words per coded block: four coded blocks per stride step, and
      // a last stride step that ends in the middle of a block's lanes.
      {"four per step n=8 k=256", 8, 256, 201},
      // 272 words (17 groups): runs start and end mid coded block, and
      // the last stride step is partial on every device.
      {"partial last step n=6 k=1088", 6, 1088, 40},
  };
  struct Bases {
    std::uintptr_t src, coeffs, out, tex;
  };
  // The models' zero-based offsets, and device-like bases at odd offsets
  // within a coalescing segment and a texture line.
  constexpr Bases kBases[] = {{0, 0, 0, 0},
                              {0x10020, 0x20007, 0x30010, 0x40050}};
  Rng rng(28);
  for (const simgpu::DeviceSpec* spec : devices) {
    const auto half = static_cast<std::size_t>(spec->half_warp);
    for (const EncodeScheme scheme : kSchemes) {
      const bool tb0 = scheme == EncodeScheme::kTable0;
      const bool tb4 = scheme == EncodeScheme::kTable4;
      const std::uint8_t sentinel =
          scheme_uses_shifted_log(scheme) ? 0x00 : gf256::kLogZero;
      // The accounting-domain zero: natural 0 for tb0 (its log is the
      // sentinel), the sentinel itself otherwise.
      const std::uint8_t zero = tb0 ? 0x00 : sentinel;
      for (const Geometry& g : kGeometries) {
        // Random rows, with row 1 all zero symbols and row 2 one repeated
        // byte; about one coefficient in five zero, and coded block 1's
        // coefficient row all zero.
        std::vector<std::uint8_t> src(g.n * g.k);
        for (auto& byte : src) byte = rng.next_byte();
        std::fill_n(src.begin() + 1 * g.k, g.k, zero);
        std::fill_n(src.begin() + 2 * g.k, g.k, 0x37);
        std::vector<std::uint8_t> coeffs(g.count * g.n);
        for (auto& c : coeffs) {
          c = rng.next_below(5) == 0 ? zero : rng.next_byte();
        }
        std::fill_n(coeffs.begin() + g.n, g.n, zero);
        ASSERT_TRUE(table_lookups_apply(scheme, g.k, 256, half));
        const TableLookups lk =
            table_lookups(*spec, scheme, src.data(), g.n, g.k);

        const std::size_t total_words = g.count * (g.k / 4);
        const std::size_t threads = 256;
        const std::size_t blocks =
            std::min<std::size_t>(static_cast<std::size_t>(spec->num_sms),
                                  (total_words + threads - 1) / threads);
        for (const Bases& at : kBases) {
          const EncodeWalk walk{.scheme = scheme,
                                .n = g.n,
                                .k = g.k,
                                .total_words = total_words,
                                .threads = threads,
                                .stride = blocks * threads,
                                .half = half,
                                .src = src.data(),
                                .coeffs = coeffs.data(),
                                .src_addr = at.src,
                                .coeff_addr = at.coeffs,
                                .out_addr = at.out,
                                .tex_addr = at.tex,
                                .lookups = &lk};
          const std::string where = std::string(spec->name) + " " +
                                    scheme_label(scheme) + " " + g.name +
                                    " src " + std::to_string(at.src);

          // Fast-path sink: two launches per launcher, so tb4 starts cold
          // and then warm.
          simgpu::Launcher run_launcher(*spec);
          simgpu::Launcher ref_launcher(*spec);
          for (const char* start : {"cold", "warm"}) {
            auto launch = [&](simgpu::Launcher& launcher, bool runs) {
              launcher.reset_metrics();
              launcher.launch({.blocks = blocks,
                               .threads_per_block = threads,
                               .check = simgpu::CheckToggle::kOff,
                               .shape = {}},
                              [&](simgpu::BlockCtx& block) {
                                BlockSink sink(block);
                                if (tb4) {
                                  sink.bind_texture(at.tex, kExpTableEntries);
                                }
                                if (runs) {
                                  encode_block_walk(sink, walk,
                                                    block.block_index());
                                } else {
                                  per_half_warp_table_walk(
                                      sink, walk, block.block_index());
                                }
                              });
              return launcher.metrics();
            };
            expect_same_metrics(launch(run_launcher, true),
                                launch(ref_launcher, false),
                                "fast " + where + " " + start);
          }

          // Model sink: every block through one builder, as encode_model;
          // a second pass over the blocks starts tb4's units warm.
          ModelSink run(*spec, "encode");
          ModelSink ref(*spec, "encode");
          if (tb4) {
            run.bind_texture(at.tex, kExpTableEntries);
            ref.bind_texture(at.tex, kExpTableEntries);
          }
          for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t b = 0; b < blocks; ++b) {
              run.set_block(b);
              ref.set_block(b);
              encode_block_walk(run, walk, b);
              per_half_warp_table_walk(ref, walk, b);
            }
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
