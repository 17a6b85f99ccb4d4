#include "net/file_transfer.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "coding/encoder.h"
#include "coding/generation_stream.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace extnc::net {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& b : content) b = rng.next_byte();
  return content;
}

TEST(FileTransfer, LosslessRoundTrip) {
  const auto content = random_content(5000, 1);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
  EXPECT_EQ(result.packets_rejected, 0u);
}

TEST(FileTransfer, EmptyFileRoundTrip) {
  FileEncodeOptions options;
  options.params = {.n = 2, .k = 8};
  const auto container = encode_file({}, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.content.empty());
}

TEST(FileTransfer, ExactGenerationBoundary) {
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 16};
  const auto content = random_content(options.params.segment_bytes() * 3, 2);
  const auto container = encode_file(content, options);
  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generations, 3u);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.content, content);
}

TEST(FileTransfer, RedundancyAbsorbsLoss) {
  const auto content = random_content(4000, 3);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 0.8;
  options.loss = 0.3;
  options.seed = 7;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
}

TEST(FileTransfer, HeavyLossWithoutRedundancyFailsGracefully) {
  const auto content = random_content(4000, 4);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.loss = 0.5;  // no redundancy: some generation will fall short
  options.seed = 9;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("insufficient"), std::string::npos);
}

TEST(FileTransfer, SystematicWithoutLossUsesMinimumPackets) {
  const auto content = random_content(2048, 5);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.systematic = true;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.packets_dependent, 0u);
}

TEST(FileTransfer, DescribeRejectsGarbage) {
  EXPECT_FALSE(describe_file(random_content(100, 6)).has_value());
  EXPECT_FALSE(describe_file(random_content(10, 7)).has_value());
  EXPECT_FALSE(describe_file({}).has_value());
}

TEST(FileTransfer, DecodeRejectsTruncatedContainer) {
  const auto content = random_content(1000, 8);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  auto container = encode_file(content, options);
  container.resize(container.size() - 10);
  const FileDecodeResult result = decode_file(container);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "container truncated");
}

TEST(FileTransfer, CorruptedPacketIsCountedNotFatal) {
  const auto content = random_content(1000, 9);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  options.redundancy = 0.5;  // spares cover the corrupted one
  auto container = encode_file(content, options);
  container[40] ^= 0xff;  // smash a header field of the first packet
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
  EXPECT_GE(result.packets_rejected, 1u);
}

TEST(FileTransfer, SimulatedCorruptionIsDetectedAndAbsorbed) {
  // Damaged packets stay in the container; the wire CRC rejects each one
  // at decode, and the redundant packets cover the holes — the decode
  // succeeds with the exact content and reports how many were rejected.
  const auto content = random_content(4000, 11);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 1.0;
  options.corruption = 0.2;
  options.seed = 12;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
  EXPECT_GE(result.packets_rejected, 1u);
}

TEST(FileTransfer, LegacyV1ContainerRoundTrips) {
  const auto content = random_content(2000, 12);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  options.wire_format = coding::WireFormat::kV1;
  const auto container = encode_file(content, options);
  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->wire_format, coding::WireFormat::kV1);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
}

TEST(FileTransfer, V2ContainerIsLargerByTheTrailers) {
  const auto content = random_content(2000, 13);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  const auto v2 = encode_file(content, options);
  options.wire_format = coding::WireFormat::kV1;
  const auto v1 = encode_file(content, options);
  const auto info = describe_file(v2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->wire_format, coding::WireFormat::kV2);
  EXPECT_EQ(v2.size(), v1.size() + info->packets * coding::kWireChecksumBytes);
}

TEST(FileTransfer, InfoMatchesOptions) {
  const auto content = random_content(10000, 10);
  FileEncodeOptions options;
  options.params = {.n = 16, .k = 128};
  options.redundancy = 0.25;
  const auto container = encode_file(content, options);
  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->params, options.params);
  EXPECT_EQ(info->content_bytes, content.size());
  EXPECT_EQ(info->generations, 5u);  // ceil(10000 / 2048)
  EXPECT_EQ(info->packets, info->generations * 20u);  // n * 1.25
}

// encode_file serializes packets straight into the container; it must
// still write exactly what the public per-packet API would, consuming the
// same seeded draws in the same order: coefficients, the loss draw, then
// the corruption draws (only when corruption > 0).
TEST(FileTransfer, ContainerIsTheSeededPacketLoopByteForByte) {
  const auto content = random_content(20000, 16);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 0.5;
  options.loss = 0.1;
  options.corruption = 0.05;
  options.seed = 17;
  const auto container = encode_file(content, options);

  coding::GenerationEncoder encoder(options.params, content);
  Rng rng(options.seed);
  const std::size_t per_generation = 12;  // ceil(8 * 1.5)
  std::vector<std::uint8_t> packets;
  std::uint32_t count = 0;
  std::size_t lost = 0;
  std::size_t damaged = 0;
  for (std::uint32_t g = 0; g < encoder.generations(); ++g) {
    for (std::size_t i = 0; i < per_generation; ++i) {
      auto packet = encoder.encode_packet(g, rng);
      if (rng.next_double() < options.loss) {
        ++lost;
        continue;
      }
      if (rng.next_double() < options.corruption) {
        const std::size_t byte = rng.next_below(packet.size());
        packet[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        ++damaged;
      }
      packets.insert(packets.end(), packet.begin(), packet.end());
      ++count;
    }
  }
  ASSERT_GT(lost, 0u);
  ASSERT_GT(damaged, 0u);

  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->packets, count);
  EXPECT_EQ(info->generations, encoder.generations());
  EXPECT_EQ(info->content_bytes, content.size());
  ASSERT_EQ(container.size(), 32 + packets.size());
  EXPECT_TRUE(std::equal(packets.begin(), packets.end(),
                         container.begin() + 32));
  // Pinned digest of this container: any change to the bytes encode_file
  // writes for a given seed shows up here.
  EXPECT_EQ(digest64(container), 0x539ac6ae0be71d28ULL);
}

// A plain-CPU seed-encoder hook: one reference coding::Encoder per
// generation, drawing from the caller's rng like the built-in encoder.
FileEncodeOptions::SeedBlockFn cpu_seed(const coding::Params& params,
                                        std::span<const std::uint8_t> data) {
  auto segments = std::make_shared<std::vector<coding::Segment>>();
  const std::size_t span = params.segment_bytes();
  for (std::size_t offset = 0; offset == 0 || offset < data.size();
       offset += span) {
    segments->push_back(coding::Segment::from_bytes(
        params, data.subspan(offset, std::min(span, data.size() - offset))));
  }
  return [segments](std::uint32_t g, Rng& rng) {
    return coding::Encoder((*segments)[g]).encode(rng);
  };
}

struct EncodeCase {
  const char* name;
  FileEncodeOptions options;
  std::uint64_t digest;  // digest64 of the container
};

// Every option that changes the packet loop, with the digest of the
// container it gives. The hook draws like the built-in encoder, so it
// writes the same bytes as the case without it.
std::vector<EncodeCase> encode_cases() {
  std::vector<EncodeCase> cases;
  FileEncodeOptions base;
  base.params = {.n = 8, .k = 64};
  base.redundancy = 0.5;
  base.seed = 21;
  cases.push_back({"plain", base, 0xc132413437e61dbaULL});
  FileEncodeOptions lossy = base;
  lossy.loss = 0.1;
  lossy.corruption = 0.05;
  cases.push_back({"loss+corruption", lossy, 0x204ab07f7b3f6b4eULL});
  FileEncodeOptions systematic = base;
  systematic.systematic = true;
  cases.push_back({"systematic", systematic, 0xa477755b8d65924cULL});
  systematic.loss = 0.2;
  cases.push_back({"systematic+loss", systematic, 0x679272ce37e99f23ULL});
  FileEncodeOptions v1 = base;
  v1.wire_format = coding::WireFormat::kV1;
  cases.push_back({"v1", v1, 0x19b8ee3cbb46920cULL});
  FileEncodeOptions exact = base;
  exact.redundancy = 0;
  cases.push_back({"redundancy 0", exact, 0x698d865f21bfb389ULL});
  FileEncodeOptions hook = lossy;
  hook.make_seed_encoder = cpu_seed;
  cases.push_back({"seed hook", hook, 0x204ab07f7b3f6b4eULL});
  return cases;
}

// The seeded packet loop, one packet at a time through the public
// per-packet API (or the hook), as a receiver would see the container
// after the header.
std::vector<std::uint8_t> packet_loop(std::span<const std::uint8_t> content,
                                      const FileEncodeOptions& options) {
  coding::GenerationEncoder encoder(options.params, content,
                                    options.systematic, options.wire_format);
  FileEncodeOptions::SeedBlockFn seed_block;
  if (options.make_seed_encoder) {
    seed_block = options.make_seed_encoder(options.params, content);
  }
  Rng rng(options.seed);
  const auto per_generation = static_cast<std::size_t>(
      static_cast<double>(options.params.n) * (1.0 + options.redundancy) +
      0.999);
  std::vector<std::uint8_t> packets;
  for (std::uint32_t g = 0; g < encoder.generations(); ++g) {
    for (std::size_t i = 0; i < per_generation; ++i) {
      auto packet = seed_block ? coding::serialize(g, seed_block(g, rng),
                                                   options.wire_format)
                               : encoder.encode_packet(g, rng);
      if (rng.next_double() < options.loss) continue;
      if (options.corruption > 0.0 &&
          rng.next_double() < options.corruption) {
        const std::size_t byte = rng.next_below(packet.size());
        packet[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      packets.insert(packets.end(), packet.begin(), packet.end());
    }
  }
  return packets;
}

constexpr std::size_t kPoolSizes[] = {1, 2, 3, 4, 8};

// Generations are coded in parallel; the container must not depend on the
// pool: every pool size writes the packet loop's bytes exactly.
TEST(FileTransfer, ContainerIsIdenticalAtEveryPoolSize) {
  const auto content = random_content(20000, 22);  // 40 generations, last partial
  for (const EncodeCase& c : encode_cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<std::uint8_t> packets = packet_loop(content, c.options);
    for (const std::size_t threads : kPoolSizes) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const auto container = encode_file(content, c.options, pool);
      const auto info = describe_file(container);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->content_bytes, content.size());
      EXPECT_EQ(info->generations, 40u);
      EXPECT_EQ(info->packets * coding::wire_size(c.options.params,
                                                  c.options.wire_format),
                packets.size());
      ASSERT_EQ(container.size(), 32 + packets.size());
      EXPECT_TRUE(std::equal(packets.begin(), packets.end(),
                             container.begin() + 32));
      EXPECT_EQ(digest64(container), c.digest);
    }
  }
}

// What decode_file must report for any container: the packets fed in
// container order to one GenerationDecoder, with its error precedence
// (truncation, then missing generations, then the size check) and partial
// counts.
FileDecodeResult serial_reference(std::span<const std::uint8_t> container) {
  FileDecodeResult result;
  const auto info = describe_file(container);
  if (!info.has_value()) {
    result.error = "not a coded file container";
    return result;
  }
  const std::size_t packet_bytes =
      coding::wire_size(info->params, info->wire_format);
  coding::GenerationDecoder decoder(info->params, info->generations);
  for (std::size_t i = 0; i < info->packets; ++i) {
    const std::size_t offset = 32 + i * packet_bytes;
    if (offset + packet_bytes > container.size()) {
      result.error = "container truncated";
      return result;
    }
    switch (decoder.add_packet(container.subspan(offset, packet_bytes))) {
      case coding::GenerationDecoder::Accept::kInnovative:
      case coding::GenerationDecoder::Accept::kGenerationComplete:
        ++result.packets_used;
        break;
      case coding::GenerationDecoder::Accept::kDependent:
        ++result.packets_dependent;
        break;
      case coding::GenerationDecoder::Accept::kRejected:
        ++result.packets_rejected;
        break;
    }
  }
  if (!decoder.is_complete()) {
    result.error = "insufficient independent packets (" +
                   std::to_string(decoder.generations_complete()) + "/" +
                   std::to_string(info->generations) +
                   " generations complete)";
    return result;
  }
  result.content = decoder.reassemble();
  if (result.content.size() < info->content_bytes) {
    result.error = "reassembled size inconsistent";
    return result;
  }
  result.content.resize(info->content_bytes);
  result.ok = true;
  return result;
}

void put_u32_at(std::vector<std::uint8_t>& bytes, std::size_t offset,
                std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

struct HostileCase {
  std::string name;
  std::vector<std::uint8_t> container;
};

std::vector<HostileCase> hostile_containers() {
  const auto content = random_content(6000, 23);  // 12 generations
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 0.5;
  options.seed = 24;
  const auto clean = encode_file(content, options);
  options.wire_format = coding::WireFormat::kV1;
  const auto v1 = encode_file(content, options);
  const std::size_t generations = 12;
  auto slot = [](const coding::WireFormat format, std::size_t i) {
    return 32 + i * coding::wire_size({.n = 8, .k = 64}, format);
  };
  const auto v2_slot = [&](std::size_t i) {
    return slot(coding::WireFormat::kV2, i);
  };
  const std::size_t v2_bytes = coding::wire_size({.n = 8, .k = 64});
  const std::size_t packets = (clean.size() - 32) / v2_bytes;

  std::vector<HostileCase> cases;
  cases.push_back({"clean", clean});
  {
    // Every packet moved to a random slot: generations interleave.
    auto shuffled = clean;
    Rng rng(25);
    for (std::size_t i = packets; i > 1; --i) {
      const std::size_t j = rng.next_below(i);
      std::swap_ranges(shuffled.begin() + v2_slot(i - 1),
                       shuffled.begin() + v2_slot(i),
                       shuffled.begin() + v2_slot(j));
    }
    cases.push_back({"shuffled", shuffled});
  }
  {
    // Ids rewritten to other valid generations: routed there, then
    // rejected by the CRC.
    auto moved = clean;
    for (std::size_t i = 0; i < packets; i += 5) {
      put_u32_at(moved, v2_slot(i) + 4,
                 static_cast<std::uint32_t>((i / 12 + 3) % generations));
    }
    cases.push_back({"id moved", moved});
  }
  {
    // Without a CRC the moved packets are accepted by the wrong
    // generation; both decoders must still agree on every count.
    auto moved = v1;
    for (std::size_t i = 0; i < packets; i += 7) {
      put_u32_at(moved, slot(coding::WireFormat::kV1, i) + 4,
                 static_cast<std::uint32_t>((i / 12 + 1) % generations));
    }
    cases.push_back({"v1 id moved", moved});
  }
  {
    auto out_of_range = clean;
    put_u32_at(out_of_range, v2_slot(3) + 4, generations);
    put_u32_at(out_of_range, v2_slot(40) + 4, 0xffffffffu);
    cases.push_back({"id out of range", out_of_range});
  }
  {
    // Another n/k in the packet header: a length mismatch on XNC2, and on
    // XNC1 (same frame length, n+8 and k-8) a shape mismatch.
    auto reshaped = clean;
    put_u32_at(reshaped, v2_slot(2) + 8, 16);
    cases.push_back({"other n", reshaped});
    auto v1_reshaped = v1;
    for (const std::size_t i : {std::size_t{1}, std::size_t{30}}) {
      put_u32_at(v1_reshaped, slot(coding::WireFormat::kV1, i) + 8, 16);
      put_u32_at(v1_reshaped, slot(coding::WireFormat::kV1, i) + 12, 56);
    }
    cases.push_back({"v1 other n and k", v1_reshaped});
  }
  {
    // Another n and k in the container header, same frame length: every
    // generation has a bucket of packets, all rejected for their shape.
    auto reshaped = clean;
    put_u32_at(reshaped, 4, 8 + 64 - 1);
    put_u32_at(reshaped, 8, 1);
    cases.push_back({"header n and k", reshaped});
    // A larger header n alone: the slots no longer line up with the frames.
    auto wider = clean;
    put_u32_at(wider, 4, 4128);
    cases.push_back({"header n", wider});
  }
  {
    auto truncated = clean;
    truncated.resize(truncated.size() - 10);
    cases.push_back({"truncated tail", truncated});
    truncated.resize(v2_slot(packets / 2) + 3);
    cases.push_back({"truncated half", truncated});
  }
  {
    auto inflated = clean;
    put_u32_at(inflated, 12, static_cast<std::uint32_t>(generations * 8 * 64 + 1));
    cases.push_back({"content beyond generations", inflated});
  }
  {
    // More generations than packets: some generation cannot have any.
    auto sparse = clean;
    put_u32_at(sparse, 20, static_cast<std::uint32_t>(packets + 3));
    cases.push_back({"generations beyond packets", sparse});
  }
  {
    // Heavy damage: some generations fall short.
    auto damaged = clean;
    for (std::size_t i = 0; i < packets; i += 2) damaged[v2_slot(i) + 20] ^= 1;
    cases.push_back({"insufficient", damaged});
  }
  return cases;
}

// Generations decode in parallel, bucketed by their header id; every field
// of the result must still equal the serial reference at every pool size.
TEST(FileTransfer, DecodeMatchesSerialReferenceOnHostileContainers) {
  std::vector<std::string> outcomes;
  for (const HostileCase& c : hostile_containers()) {
    SCOPED_TRACE(c.name);
    const FileDecodeResult expected = serial_reference(c.container);
    outcomes.push_back(expected.ok ? "ok" : expected.error.substr(0, 12));
    for (const std::size_t threads : kPoolSizes) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const FileDecodeResult result = decode_file(c.container, pool);
      EXPECT_EQ(result.ok, expected.ok);
      EXPECT_EQ(result.error, expected.error);
      EXPECT_EQ(result.content, expected.content);
      EXPECT_EQ(result.packets_used, expected.packets_used);
      EXPECT_EQ(result.packets_dependent, expected.packets_dependent);
      EXPECT_EQ(result.packets_rejected, expected.packets_rejected);
    }
  }
  // The cases reach every outcome of the decoder.
  for (const char* outcome :
       {"ok", "container tr", "insufficient", "reassembled "}) {
    EXPECT_NE(std::find(outcomes.begin(), outcomes.end(), outcome),
              outcomes.end())
        << outcome;
  }
}

TEST(FileTransferDeathTest, InvalidLossAborts) {
  FileEncodeOptions options;
  options.loss = 1.0;
  EXPECT_DEATH((void)encode_file({}, options), "EXTNC_CHECK");
}

}  // namespace
}  // namespace extnc::net
