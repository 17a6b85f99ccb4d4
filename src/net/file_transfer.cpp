#include "net/file_transfer.h"

#include <cstring>

#include "coding/generation_stream.h"
#include "util/assert.h"

namespace extnc::net {

namespace {

constexpr std::uint32_t kFileMagic = 0x46434e58;  // "XNCF"
constexpr std::size_t kFileHeaderBytes = 32;
constexpr std::uint32_t kFlagWireV2 = 1u << 0;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

}  // namespace

std::vector<std::uint8_t> encode_file(std::span<const std::uint8_t> content,
                                      const FileEncodeOptions& options) {
  EXTNC_CHECK(options.redundancy >= 0.0);
  EXTNC_CHECK(options.loss >= 0.0 && options.loss < 1.0);
  EXTNC_CHECK(options.corruption >= 0.0 && options.corruption <= 1.0);
  Rng rng(options.seed);
  coding::GenerationEncoder encoder(options.params, content,
                                    options.systematic, options.wire_format);
  FileEncodeOptions::SeedBlockFn seed_block;
  if (options.make_seed_encoder) {
    // The hook emits coded blocks only; systematic rounds need the
    // built-in encoder's pass-through packets.
    EXTNC_CHECK(!options.systematic);
    seed_block = options.make_seed_encoder(options.params, content);
  }

  const std::size_t per_generation = static_cast<std::size_t>(
      static_cast<double>(options.params.n) * (1.0 + options.redundancy) +
      0.999);
  // Capacity for every packet that could survive is reserved once, and each
  // packet is serialized straight into its slot at the end of the
  // container. Growing by one slot at a time (instead of zero-filling the
  // whole container up front) writes every byte of it once. A lost packet
  // gives its slot back.
  const std::size_t packet_bytes = encoder.packet_bytes();
  std::vector<std::uint8_t> out;
  out.reserve(kFileHeaderBytes +
              encoder.generations() * per_generation * packet_bytes);
  out.resize(kFileHeaderBytes);
  std::uint32_t packets = 0;
  for (std::uint32_t g = 0; g < encoder.generations(); ++g) {
    for (std::size_t i = 0; i < per_generation; ++i) {
      const std::size_t offset = out.size();
      out.resize(offset + packet_bytes);
      const std::span<std::uint8_t> packet =
          std::span(out).subspan(offset, packet_bytes);
      if (seed_block) {
        coding::serialize_into(g, seed_block(g, rng), packet,
                               options.wire_format);
      } else {
        encoder.encode_packet_into(g, rng, packet);
      }
      if (rng.next_double() < options.loss) {  // dropped in transit
        out.resize(offset);
        continue;
      }
      // Guarded so corruption-free runs keep the seeded rng trajectory of
      // the original (corruption-less) encoder, draw for draw.
      if (options.corruption > 0.0 &&
          rng.next_double() < options.corruption) {  // damaged in transit
        const std::size_t byte = rng.next_below(packet.size());
        packet[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      ++packets;
    }
  }

  std::uint8_t* header = out.data();
  put_u32(header, kFileMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(options.params.n));
  put_u32(header + 8, static_cast<std::uint32_t>(options.params.k));
  put_u64(header + 12, content.size());
  put_u32(header + 20, static_cast<std::uint32_t>(encoder.generations()));
  put_u32(header + 24, packets);
  put_u32(header + 28, options.wire_format == coding::WireFormat::kV2
                           ? kFlagWireV2
                           : 0u);
  return out;
}

std::optional<FileInfo> describe_file(
    std::span<const std::uint8_t> container) {
  if (container.size() < kFileHeaderBytes) return std::nullopt;
  if (get_u32(container.data()) != kFileMagic) return std::nullopt;
  FileInfo info;
  info.params.n = get_u32(container.data() + 4);
  info.params.k = get_u32(container.data() + 8);
  info.content_bytes = get_u64(container.data() + 12);
  info.generations = get_u32(container.data() + 20);
  info.packets = get_u32(container.data() + 24);
  const std::uint32_t flags = get_u32(container.data() + 28);
  info.wire_format = (flags & kFlagWireV2) ? coding::WireFormat::kV2
                                           : coding::WireFormat::kV1;
  if (info.params.n == 0 || info.params.k == 0 || info.generations == 0) {
    return std::nullopt;
  }
  return info;
}

FileDecodeResult decode_file(std::span<const std::uint8_t> container) {
  FileDecodeResult result;
  const auto info = describe_file(container);
  if (!info.has_value()) {
    result.error = "not a coded file container";
    return result;
  }
  const std::size_t packet_bytes =
      coding::wire_size(info->params, info->wire_format);
  coding::GenerationDecoder decoder(info->params, info->generations);
  std::size_t offset = kFileHeaderBytes;
  for (std::uint32_t i = 0; i < info->packets; ++i) {
    if (offset + packet_bytes > container.size()) {
      result.error = "container truncated";
      return result;
    }
    const auto outcome =
        decoder.add_packet(container.subspan(offset, packet_bytes));
    offset += packet_bytes;
    switch (outcome) {
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

}  // namespace extnc::net
