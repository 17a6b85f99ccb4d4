// file_rlnc: net::encode_file then net::decode_file on a random file
// (64 MiB; n=32, k=1 KiB, XNC2 packets, redundancy 1/16). A batch job
// dominated by per-packet work: CRC32C, serialize copies, per-packet
// allocation, parse_view and progressive elimination.
//
// Timed run: passes until the budget is spent, each a timed set-up and a
// round trip; pass 0 is the untimed warm-up. Every round trip uses fresh
// coefficients and must give back the file byte for byte; a generation
// that is not recovered or does not match counts as one failed operation.
//
// Traced run: the two entry points under spans, then the per-packet calls
// they are made of (GenerationEncoder::encode_packet, serialize,
// GenerationDecoder::add_packet, parse_view, crc32c, reassemble) replayed
// one span per call, plus the fused gf256 kernel alone.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coding/encoder.h"
#include "coding/generation_stream.h"
#include "coding/segment.h"
#include "coding/wire.h"
#include "harness.h"
#include "net/file_transfer.h"
#include "util/checksum.h"

namespace perfbench {
namespace {

using extnc::Rng;
namespace coding = extnc::coding;
namespace net = extnc::net;

constexpr coding::Params kParams{.n = 32, .k = 1024};
constexpr std::size_t kContainerHeaderBytes = 32;

net::FileEncodeOptions encode_options(std::uint64_t seed) {
  net::FileEncodeOptions options;
  options.params = kParams;
  options.redundancy = 1.0 / 16;
  options.wire_format = coding::WireFormat::kV2;
  options.seed = seed;
  return options;
}

// Generations of `decoded` that differ from `content` (the whole file when
// the sizes differ).
std::uint64_t bad_generations(const std::vector<std::uint8_t>& content,
                              const std::vector<std::uint8_t>& decoded,
                              std::size_t generations) {
  if (decoded.size() != content.size()) return generations;
  const std::size_t span = kParams.n * kParams.k;
  std::uint64_t bad = 0;
  for (std::size_t offset = 0; offset < content.size(); offset += span) {
    const std::size_t len = std::min(span, content.size() - offset);
    if (std::memcmp(content.data() + offset, decoded.data() + offset, len)) {
      ++bad;
    }
  }
  return bad;
}

// Failed generations of one round trip (0 when it was exact).
std::uint64_t check_round_trip(const std::vector<std::uint8_t>& content,
                               const net::FileDecodeResult& decoded,
                               std::size_t generations) {
  if (decoded.ok) return bad_generations(content, decoded.content, generations);
  // "... (X/Y generations complete)": the rest were not recovered.
  unsigned long complete = 0;
  unsigned long total = 0;
  const std::size_t open = decoded.error.find('(');
  if (open != std::string::npos &&
      std::sscanf(decoded.error.c_str() + open, "(%lu/%lu", &complete,
                  &total) == 2 &&
      complete < total) {
    return total - complete;
  }
  return generations;
}

std::size_t generation_count(std::size_t bytes) {
  const std::size_t span = kParams.n * kParams.k;
  return (bytes + span - 1) / span;
}

void trace_file_rlnc(const Options& options,
                     const std::vector<std::uint8_t>& content,
                     Result& result) {
  const std::size_t generations = generation_count(content.size());
  const net::FileEncodeOptions encode = encode_options(
      derive_seed(options.seed, 2));

  // Untraced reference round trips, then the same traced.
  const int rounds = options.quick ? 1 : 3;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<std::uint8_t> container;
  net::FileDecodeResult decoded;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = now_s();
    container = net::encode_file(content, encode);
    decoded = net::decode_file(container);
    untraced.push_back(now_s() - t0);
  }
  tracer().set_enabled(true);
  for (int r = 0; r < rounds; ++r) {
    const double t0 = now_s();
    {
      const ScopedSpan span("net.encode_file");
      container = net::encode_file(content, encode);
    }
    {
      const ScopedSpan span("net.decode_file");
      decoded = net::decode_file(container);
    }
    traced.push_back(now_s() - t0);
  }
  result.attempted += generations;
  const std::uint64_t bad = check_round_trip(content, decoded, generations);
  if (bad > 0) result.fail(bad, "traced round trip: " + decoded.error);
  const double encode_file_s = span_totals("net.encode_file").mean_s();
  const double decode_file_s = span_totals("net.decode_file").mean_s();

  // Encode side, one span per packet.
  const std::size_t per_generation = static_cast<std::size_t>(
      static_cast<double>(kParams.n) * (1.0 + encode.redundancy) + 0.999);
  {
    coding::GenerationEncoder encoder(kParams, content, false,
                                      coding::WireFormat::kV2);
    Rng rng(encode.seed);
    for (std::uint32_t g = 0; g < generations; ++g) {
      for (std::size_t i = 0; i < per_generation; ++i) {
        const ScopedSpan span("coding.encode_packet");
        const std::vector<std::uint8_t> packet = encoder.encode_packet(g, rng);
      }
    }
  }
  // Serialization alone, on every eighth generation.
  {
    Rng rng(derive_seed(options.seed, 3));
    for (std::uint32_t g = 0; g < generations; g += 8) {
      const std::size_t offset = std::size_t{g} * kParams.n * kParams.k;
      const std::size_t len =
          std::min(kParams.n * kParams.k, content.size() - offset);
      const coding::Segment segment = coding::Segment::from_bytes(
          kParams, std::span(content).subspan(offset, len));
      const coding::Encoder encoder(segment);
      for (std::size_t i = 0; i < per_generation; ++i) {
        const coding::CodedBlock block = encoder.encode(rng);
        const ScopedSpan span("coding.serialize");
        const std::vector<std::uint8_t> packet =
            coding::serialize(g, block, coding::WireFormat::kV2);
      }
    }
  }

  // Decode side over the traced container, one span per packet.
  const auto info = net::describe_file(container);
  const std::size_t packet_bytes =
      coding::wire_size(kParams, coding::WireFormat::kV2);
  const std::span<const std::uint8_t> all(container);
  {
    coding::GenerationDecoder decoder(kParams, generations);
    for (std::uint32_t i = 0; i < info->packets; ++i) {
      const ScopedSpan span("coding.add_packet");
      decoder.add_packet(all.subspan(
          kContainerHeaderBytes + std::size_t{i} * packet_bytes, packet_bytes));
    }
    std::vector<std::uint8_t> reassembled;
    {
      const ScopedSpan span("coding.reassemble");
      reassembled = decoder.reassemble();
    }
    result.attempted += 1;
    if (reassembled.size() < content.size() ||
        std::memcmp(reassembled.data(), content.data(), content.size())) {
      result.fail(1, "replayed GenerationDecoder disagrees with the source");
    }
  }
  for (std::uint32_t i = 0; i < info->packets; ++i) {
    const auto packet = all.subspan(
        kContainerHeaderBytes + std::size_t{i} * packet_bytes, packet_bytes);
    {
      const ScopedSpan span("coding.parse_view");
      const auto view = coding::parse_view(packet);
      if (!view.ok()) result.fail(1, "parse_view rejected a clean packet");
    }
    const ScopedSpan span("util.crc32c");
    const volatile std::uint32_t crc =
        extnc::crc32c(packet.first(packet_bytes - coding::kWireChecksumBytes));
    (void)crc;
  }

  Rng kernel_rng(derive_seed(options.seed, 4));
  const double fused = fused_kernel_mb_s(kParams.n, kParams.k, kernel_rng,
                                         "gf256.mul_add_regions_n32",
                                         options.quick ? 0.05 : 0.3);
  tracer().set_enabled(false);

  const SpanTotals encode_packet = span_totals("coding.encode_packet");
  const SpanTotals add_packet = span_totals("coding.add_packet");
  const SpanTotals reassemble = span_totals("coding.reassemble");
  const SpanTotals crc = span_totals("util.crc32c");
  result.add("net.encode_file_s", encode_file_s, "s");
  result.add("net.encode_self_s", encode_file_s - encode_packet.total_s, "s");
  result.add("net.decode_file_s", decode_file_s, "s");
  result.add("net.decode_self_s",
             decode_file_s - add_packet.total_s - reassemble.total_s, "s");
  result.add("coding.encode_packet_us", encode_packet.mean_s() * 1e6, "us");
  result.add("coding.serialize_us",
             span_totals("coding.serialize").mean_s() * 1e6, "us");
  result.add("coding.add_packet_us", add_packet.mean_s() * 1e6, "us");
  result.add("coding.parse_view_us",
             span_totals("coding.parse_view").mean_s() * 1e6, "us");
  result.add("coding.reassemble_s", reassemble.total_s, "s");
  result.add("util.crc32c_mb_s",
             static_cast<double>(crc.count * (packet_bytes -
                                              coding::kWireChecksumBytes)) /
                 kMB / crc.total_s,
             "MB/s");
  result.add("gf256.fused_src_mb_s_n32", fused, "MB/s");
  result.add("net.packets", info->packets, "count");
  result.add("net.packets_dependent", decoded.packets_dependent, "count");
  result.add("net.packets_rejected", decoded.packets_rejected, "count");
  result.add("net.useful_packet_ratio",
             static_cast<double>(decoded.packets_used) / info->packets,
             "ratio");
  result.add("trace.overhead_share", median(traced) / median(untraced) - 1,
             "ratio");
}

}  // namespace

Result run_file_rlnc(const Options& options) {
  Result result;
  result.stamp_number("pool_threads", 1);
  const std::size_t bytes = options.quick ? std::size_t{1} << 20
                                          : std::size_t{64} << 20;
  Rng input_rng(derive_seed(options.seed, 1));
  const std::vector<std::uint8_t> content = random_bytes(bytes, input_rng);
  const std::size_t generations = generation_count(bytes);

  if (options.trace) {
    trace_file_rlnc(options, content, result);
    return result;
  }

  // Every pass times the set-up as well: building the pipeline objects
  // encode_file and decode_file construct before any coding (the content
  // split into generations, one progressive decoder per generation).
  // Pass 0 warms the allocator and the caches and is not timed.
  Samples setup;
  Samples encode_s;
  Samples decode_s;
  Samples round_trip_s;
  const Deadline deadline(options.seconds);
  for (int pass = 0;; ++pass) {
    double t0 = now_s();
    auto encoder = std::make_unique<coding::GenerationEncoder>(
        kParams, content, false, coding::WireFormat::kV2);
    auto decoder = std::make_unique<coding::GenerationDecoder>(
        kParams, encoder->generations());
    const double built_s = now_s() - t0;
    encoder.reset();
    decoder.reset();

    const net::FileEncodeOptions encode =
        encode_options(derive_seed(options.seed, 100 + pass));
    t0 = now_s();
    std::vector<std::uint8_t> container = net::encode_file(content, encode);
    const double t1 = now_s();
    if (options.inject_fault && pass == 0) container[0] ^= 0xff;  // magic
    const net::FileDecodeResult decoded = net::decode_file(container);
    const double t2 = now_s();

    result.attempted += generations;
    const std::uint64_t bad = check_round_trip(content, decoded, generations);
    if (bad > 0) {
      result.fail(bad, "round trip " + std::to_string(pass) + ": " +
                           (decoded.ok ? "byte mismatch" : decoded.error));
    }
    if (pass > 0) {
      setup.add(built_s);
      encode_s.add(t1 - t0);
      decode_s.add(t2 - t1);
      round_trip_s.add(t2 - t0);
    }
    if (options.quick ? pass >= 1 : pass >= 3 && deadline.expired()) break;
  }

  const double mb = static_cast<double>(bytes) / kMB;
  result.add("setup_s", setup.fastest_window_median(), "s");
  result.add("encode_mb_s", mb / encode_s.fastest_window_median(), "MB/s");
  result.add("decode_mb_s", mb / decode_s.fastest_window_median(), "MB/s");
  result.add_latency(round_trip_s, "round trip");
  std::fprintf(stderr, "file_rlnc: %zu timed round trips of %.0f MB\n",
               round_trip_s.size(), mb);
  return result;
}

}  // namespace perfbench
