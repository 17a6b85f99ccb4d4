// segment_stream: the paper's streaming server (Sec. 5.3) and multi-segment
// decode (Sec. 5.2) on the CPU. One closed-loop client issues requests back
// to back; each asks for 64 coded blocks of one segment, encoded by
// cpu::CpuEncoder (full-block partitioning) on a ThreadPool of nproc - 1
// workers. n=128, k=4 KiB, 16 segments cycled: an 8 MiB working set, larger
// than one core's L2. Then cpu::MultiSegmentDecoder::decode_all over one
// segment per worker.
// No wire format, CRC or container is involved.
//
// Every 16th request is re-encoded by the single-thread coding::Encoder and
// must match byte for byte; every decoded segment must equal its source.
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "cpu/cpu_encoder.h"
#include "cpu/multi_segment_decoder.h"
#include "harness.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using extnc::Rng;
using extnc::ThreadPool;
namespace coding = extnc::coding;
namespace cpu = extnc::cpu;

constexpr coding::Params kParams{.n = 128, .k = 4096};
constexpr std::size_t kSegmentBytes = kParams.n * kParams.k;
constexpr std::size_t kCheckEvery = 16;

// What a streaming server builds before its first request: the segments
// loaded from content, the pool, one encoder per segment, the decoder.
struct Server {
  Server(std::span<const std::uint8_t> content, std::size_t threads)
      : pool(threads), decoder(kParams, pool) {
    const std::size_t count = content.size() / kSegmentBytes;
    segments.reserve(count);  // the encoders keep pointers into it
    encoders.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      segments.push_back(coding::Segment::from_bytes(
          kParams, content.subspan(s * kSegmentBytes, kSegmentBytes)));
      encoders.emplace_back(segments.back(), pool,
                            cpu::EncodePartitioning::kFullBlock);
    }
  }
  ThreadPool pool;
  cpu::MultiSegmentDecoder decoder;
  std::vector<coding::Segment> segments;
  std::vector<cpu::CpuEncoder> encoders;
};

// Blocks of `batch` that differ from the reference encoder's output for
// the same coefficients.
std::uint64_t mismatched_blocks(const coding::Segment& segment,
                                const coding::CodedBatch& batch) {
  const coding::Encoder reference(segment);
  std::vector<std::uint8_t> expected(kParams.k);
  std::uint64_t bad = 0;
  for (std::size_t j = 0; j < batch.count(); ++j) {
    reference.encode_with_coefficients(batch.coefficients(j), expected);
    if (std::memcmp(expected.data(), batch.payload(j).data(), kParams.k)) {
      ++bad;
    }
  }
  return bad;
}

std::uint64_t wrong_segments(const std::vector<coding::Segment>& decoded,
                             const std::vector<coding::Segment>& sources) {
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < decoded.size(); ++s) {
    if (!(decoded[s] == sources[s])) ++bad;
  }
  return bad;
}

// Coded MB/s of `requests` requests on a pool of `threads` threads.
double coded_mb_s_on(std::size_t threads, const coding::Segment& segment,
                     std::size_t blocks, int requests, Rng& rng,
                     const char* span_name) {
  ThreadPool pool(threads);
  const cpu::CpuEncoder encoder(segment, pool,
                                cpu::EncodePartitioning::kFullBlock);
  (void)encoder.encode_batch(blocks, rng);  // wake the workers
  for (int r = 0; r < requests; ++r) {
    const ScopedSpan span(span_name);
    (void)encoder.encode_batch(blocks, rng);
  }
  return static_cast<double>(requests) * blocks * kParams.k / kMB /
         span_totals(span_name).total_s;
}

void trace_segment_stream(const Options& options, Server& server,
                          const std::vector<coding::Segment>& sources,
                          const std::vector<coding::CodedBatch>& decode_in,
                          std::size_t threads, std::size_t blocks,
                          Result& result) {
  const std::size_t segment_count = server.segments.size();
  Rng rng(derive_seed(options.seed, 3));
  // Enough untraced requests for a p99 with ten samples beyond it.
  const int requests = options.quick ? 16 : 1200;

  std::vector<double> untraced;
  for (int r = 0; r < requests; ++r) {
    const double t0 = now_s();
    (void)server.encoders[r % segment_count].encode_batch(blocks, rng);
    untraced.push_back(now_s() - t0);
  }
  tracer().set_enabled(true);
  for (int r = 0; r < requests; ++r) {
    coding::CodedBatch batch;
    {
      const ScopedSpan span("cpu.encode_batch");
      batch = server.encoders[r % segment_count].encode_batch(blocks, rng);
    }
    if (r % kCheckEvery == 0) {
      result.attempted += 1;
      if (mismatched_blocks(server.segments[r % segment_count], batch) > 0) {
        result.fail(1, "traced request differs from coding::Encoder");
      }
    }
  }
  double untraced_s = 0;
  for (const double s : untraced) untraced_s += s;
  const double traced_s = span_totals("cpu.encode_batch").total_s;

  // encode_into alone: coefficients drawn outside the span.
  const coding::Encoder drawer(server.segments[0]);
  coding::CodedBatch batch(kParams, blocks);
  for (int r = 0; r < requests; ++r) {
    for (std::size_t j = 0; j < blocks; ++j) {
      drawer.draw_coefficients(rng, batch.coefficients(j));
    }
    const ScopedSpan span("cpu.encode_into");
    server.encoders[r % segment_count].encode_into(batch);
  }
  for (int r = 0; r < (options.quick ? 100 : 5000); ++r) {
    const ScopedSpan span("util.pool_run_batch");
    server.pool.run_batch(threads, [](std::size_t) {});
  }

  const int scaling_requests = options.quick ? 8 : 100;
  const double t1 = coded_mb_s_on(1, server.segments[0], blocks,
                                  scaling_requests, rng, "cpu.encode_batch_t1");
  const double t2 = coded_mb_s_on(2, server.segments[0], blocks,
                                  scaling_requests, rng, "cpu.encode_batch_t2");
  const double t4 = coded_mb_s_on(4, server.segments[0], blocks,
                                  scaling_requests, rng, "cpu.encode_batch_t4");

  for (int r = 0; r < (options.quick ? 1 : 5); ++r) {
    std::vector<coding::Segment> decoded;
    {
      const ScopedSpan span("cpu.multiseg_decode_all");
      decoded = server.decoder.decode_all(decode_in);
    }
    result.attempted += decoded.size();
    const std::uint64_t bad = wrong_segments(decoded, sources);
    if (bad > 0) result.fail(bad, "traced decode_all differs from the source");
  }
  for (int r = 0; r < (options.quick ? 1 : 5); ++r) {
    coding::ProgressiveDecoder decoder(kParams);
    {
      const ScopedSpan span("coding.progressive_decode");
      for (std::size_t j = 0; j < kParams.n; ++j) {
        decoder.add(decode_in[0].coefficients(j), decode_in[0].payload(j));
      }
    }
    result.attempted += 1;
    if (!decoder.is_complete() || !(decoder.decoded_segment() == sources[0])) {
      result.fail(1, "ProgressiveDecoder differs from the source");
    }
  }

  Rng kernel_rng(derive_seed(options.seed, 4));
  const double fused = fused_kernel_mb_s(kParams.n, kParams.k, kernel_rng,
                                         "gf256.mul_add_regions_n128",
                                         options.quick ? 0.05 : 0.3);
  tracer().set_enabled(false);

  const SpanTotals progressive = span_totals("coding.progressive_decode");
  result.add("gf256.fused_src_mb_s_n128", fused, "MB/s");
  result.add("cpu.batch_p99_ms", percentile(untraced, 0.99) * 1e3, "ms");
  result.add("cpu.encode_into_ms",
             span_totals("cpu.encode_into").mean_s() * 1e3, "ms");
  result.add("util.pool_roundtrip_us",
             span_totals("util.pool_run_batch").mean_s() * 1e6, "us");
  result.add("cpu.coded_mb_s_t1", t1, "MB/s");
  result.add("cpu.coded_mb_s_t2", t2, "MB/s");
  result.add("cpu.coded_mb_s_t4", t4, "MB/s");
  result.add("cpu.scaling_eff_t4", t4 / (4 * t1), "ratio");
  result.add("cpu.multiseg_decode_ms",
             span_totals("cpu.multiseg_decode_all").mean_s() * 1e3, "ms");
  result.add("coding.progressive_decode_mb_s",
             static_cast<double>(progressive.count * kSegmentBytes) / kMB /
                 progressive.total_s,
             "MB/s");
  result.add("trace.overhead_share", traced_s / untraced_s - 1, "ratio");
}

}  // namespace

Result run_segment_stream(const Options& options) {
  Result result;
  // nproc threads in all: the client plus nproc - 1 pool workers. With
  // nproc workers the client and every other process on the host preempt
  // a worker, which then straggles: on the 4-core baseline host, requests
  // and decode_all ran slower and spread twice as wide between runs.
  const std::size_t threads =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  result.stamp_number("pool_threads", threads);
  const std::size_t segment_count = options.quick ? 4 : 16;
  const std::size_t blocks = options.quick ? 16 : 64;

  // Inputs: the content, plus n independent coded blocks for each of the
  // first `threads` segments (what decode_all consumes).
  Rng input_rng(derive_seed(options.seed, 1));
  const std::vector<std::uint8_t> content =
      random_bytes(segment_count * kSegmentBytes, input_rng);
  const std::size_t decode_segments = std::min(threads, segment_count);
  std::vector<coding::Segment> sources;
  std::vector<coding::CodedBatch> decode_in;
  for (std::size_t s = 0; s < decode_segments; ++s) {
    sources.push_back(coding::Segment::from_bytes(
        kParams, std::span(content).subspan(s * kSegmentBytes, kSegmentBytes)));
    decode_in.push_back(independent_batch(sources.back(), input_rng));
  }

  // Set-up: build the server and serve one request and one decode_all, so
  // the workers are awake and first-touch allocation is paid.
  Rng warm_rng(derive_seed(options.seed, 5));
  auto set_up = [&] {
    auto built = std::make_unique<Server>(content, threads);
    (void)built->encoders[0].encode_batch(blocks, warm_rng);
    (void)built->decoder.decode_all(decode_in);
    return built;
  };
  const std::unique_ptr<Server> server = set_up();

  if (options.trace) {
    trace_segment_stream(options, *server, sources, decode_in, threads,
                         blocks, result);
    return result;
  }

  // Rounds until the budget is spent (at least 16, so the logged p99 has
  // ten requests beyond it): 64 closed-loop requests, one decode_all, and
  // every 8th round one set-up timed on a throwaway server.
  Rng request_rng(derive_seed(options.seed, 2));
  Samples setup;
  Samples request_s;
  Samples decode_s;
  std::size_t r = 0;
  const Deadline deadline(options.seconds);
  for (int round = 0;; ++round) {
    if (round % 8 == 0) {
      const double t0 = now_s();
      const std::unique_ptr<Server> spare = set_up();
      setup.add(now_s() - t0);
    }
    for (int i = 0; i < 64; ++i, ++r) {
      const std::size_t s = r % segment_count;
      const double t0 = now_s();
      coding::CodedBatch batch =
          server->encoders[s].encode_batch(blocks, request_rng);
      request_s.add(now_s() - t0);
      result.attempted += 1;
      if (r % kCheckEvery == 0) {
        if (options.inject_fault && r == 0) batch.payload(0)[0] ^= 0x01;
        if (mismatched_blocks(server->segments[s], batch) > 0) {
          result.fail(1, "request " + std::to_string(r) +
                             " differs from coding::Encoder");
        }
      }
    }
    const double t0 = now_s();
    const std::vector<coding::Segment> decoded =
        server->decoder.decode_all(decode_in);
    decode_s.add(now_s() - t0);
    result.attempted += decoded.size();
    const std::uint64_t bad = wrong_segments(decoded, sources);
    if (bad > 0) result.fail(bad, "decode_all differs from the source");
    if (options.quick ? round >= 1 : round >= 16 && deadline.expired()) break;
  }

  result.add("setup_s", setup.fastest_window_median(), "s");
  result.add("encode_mb_s",
             static_cast<double>(blocks * kParams.k) / kMB /
                 request_s.fastest_window_median(),
             "MB/s");
  result.add("decode_mb_s",
             static_cast<double>(decode_segments * kSegmentBytes) / kMB /
                 decode_s.fastest_window_median(),
             "MB/s");
  result.add_latency(request_s, "request");
  std::fprintf(stderr,
               "segment_stream: %zu requests of %zu blocks on %zu threads, "
               "%zu decode_all rounds of %zu segments, %zu set-ups\n",
               request_s.size(), blocks, threads, decode_s.size(),
               decode_segments, setup.size());
  return result;
}

}  // namespace perfbench
