#include "coding/wire.h"

#include <cstring>

#include "util/assert.h"
#include "util/checksum.h"

namespace extnc::coding {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

const char* parse_error_name(ParseError error) {
  switch (error) {
    case ParseError::kTooShort: return "too short";
    case ParseError::kBadMagic: return "bad magic";
    case ParseError::kBadShape: return "bad shape";
    case ParseError::kLengthMismatch: return "length mismatch";
    case ParseError::kBadChecksum: return "bad checksum";
  }
  return "?";
}

std::vector<std::uint8_t> serialize(std::uint32_t generation,
                                    const CodedBlock& block,
                                    WireFormat format) {
  std::vector<std::uint8_t> out(wire_size(block.params(), format));
  serialize_into(generation, block, out, format);
  return out;
}

void serialize_into(std::uint32_t generation, const CodedBlock& block,
                    std::span<std::uint8_t> out, WireFormat format) {
  const Params& p = block.params();
  EXTNC_CHECK(out.size() == wire_size(p, format));
  std::memcpy(out.data() + kWireHeaderBytes, block.coefficients().data(), p.n);
  std::memcpy(out.data() + kWireHeaderBytes + p.n, block.payload().data(),
              p.k);
  seal_frame(generation, p, out, format);
}

void seal_frame(std::uint32_t generation, const Params& params,
                std::span<std::uint8_t> out, WireFormat format) {
  EXTNC_CHECK(out.size() == wire_size(params, format));
  put_u32(out.data(),
          format == WireFormat::kV2 ? kWireMagicV2 : kWireMagic);
  put_u32(out.data() + 4, generation);
  put_u32(out.data() + 8, static_cast<std::uint32_t>(params.n));
  put_u32(out.data() + 12, static_cast<std::uint32_t>(params.k));
  if (format == WireFormat::kV2) {
    const std::size_t body = kWireHeaderBytes + params.n + params.k;
    put_u32(out.data() + body, crc32c(out.first(body)));
  }
}

std::uint32_t peek_generation(std::span<const std::uint8_t> frame) {
  EXTNC_CHECK(frame.size() >= kWireHeaderBytes);
  return get_u32(frame.data() + 4);
}

ParseResult ParseResult::success(Packet packet) {
  ParseResult result;
  result.packet_ = std::move(packet);
  return result;
}

ParseResult ParseResult::failure(ParseError error) {
  ParseResult result;
  result.error_ = error;
  return result;
}

ParseViewResult ParseViewResult::success(PacketView packet) {
  ParseViewResult result;
  result.packet_ = packet;
  return result;
}

ParseViewResult ParseViewResult::failure(ParseError error) {
  ParseViewResult result;
  result.error_ = error;
  return result;
}

ParseViewResult parse_view(std::span<const std::uint8_t> data,
                           const WireLimits& limits) {
  if (data.size() < kWireHeaderBytes) {
    return ParseViewResult::failure(ParseError::kTooShort);
  }
  const std::uint32_t magic = get_u32(data.data());
  WireFormat format;
  if (magic == kWireMagic) {
    format = WireFormat::kV1;
  } else if (magic == kWireMagicV2) {
    format = WireFormat::kV2;
  } else {
    return ParseViewResult::failure(ParseError::kBadMagic);
  }
  const std::uint32_t generation = get_u32(data.data() + 4);
  const std::uint32_t n = get_u32(data.data() + 8);
  const std::uint32_t k = get_u32(data.data() + 12);
  if (n == 0 || k == 0 || n > limits.max_n || k > limits.max_k) {
    return ParseViewResult::failure(ParseError::kBadShape);
  }
  const Params params{.n = n, .k = k};
  if (data.size() != wire_size(params, format)) {
    return ParseViewResult::failure(ParseError::kLengthMismatch);
  }
  const std::size_t body = kWireHeaderBytes + n + k;
  if (format == WireFormat::kV2 &&
      crc32c(data.first(body)) != get_u32(data.data() + body)) {
    return ParseViewResult::failure(ParseError::kBadChecksum);
  }
  PacketView packet;
  packet.generation = generation;
  packet.format = format;
  packet.block = CodedBlockView(params, data.subspan(kWireHeaderBytes, n),
                                data.subspan(kWireHeaderBytes + n, k));
  return ParseViewResult::success(packet);
}

ParseResult parse(std::span<const std::uint8_t> data,
                  const WireLimits& limits) {
  const ParseViewResult view = parse_view(data, limits);
  if (!view.ok()) return ParseResult::failure(view.error());
  Packet packet;
  packet.generation = view.packet().generation;
  packet.format = view.packet().format;
  packet.block = view.packet().block.materialize();
  return ParseResult::success(std::move(packet));
}

}  // namespace extnc::coding
