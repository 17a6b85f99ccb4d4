#include "net/file_transfer.h"

#include <algorithm>
#include <cstring>

#include "coding/generation_stream.h"
#include "util/assert.h"
#include "util/large_buffer.h"

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
                                      const FileEncodeOptions& options,
                                      ThreadPool& pool) {
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

  const std::size_t n = options.params.n;
  const std::size_t per_generation = static_cast<std::size_t>(
      static_cast<double>(n) * (1.0 + options.redundancy) + 0.999);
  const std::size_t most = encoder.generations() * per_generation;

  // The serial pass replays the seeded packet loop draw for draw: each
  // packet's coefficients (or the hook's block), then its loss draw, then
  // its corruption draws (only when corruption > 0, so corruption-free
  // runs keep the rng trajectory of the original corruption-less encoder).
  // It records what each surviving packet needs, generation by generation;
  // a lost packet's row is overwritten by the next one.
  struct Survivor {
    std::uint32_t flip_byte;  // damaged in transit: byte and bit mask
    std::uint8_t flip_mask;   // 0 when undamaged
  };
  std::vector<Survivor> survivors;
  survivors.reserve(most);
  // Generation g's survivors are [first_survivor[g], first_survivor[g + 1]).
  std::vector<std::size_t> first_survivor;
  first_survivor.reserve(encoder.generations() + 1);
  std::vector<std::uint8_t> rows(seed_block ? 0 : most * n);
  std::vector<coding::CodedBlock> blocks;  // the hook's, per survivor
  const std::size_t packet_bytes = encoder.packet_bytes();
  for (std::uint32_t g = 0; g < encoder.generations(); ++g) {
    first_survivor.push_back(survivors.size());
    for (std::size_t i = 0; i < per_generation; ++i) {
      if (seed_block) {
        blocks.push_back(seed_block(g, rng));
      } else {
        encoder.draw_coefficients(
            g, rng, std::span(rows).subspan(survivors.size() * n, n));
      }
      if (rng.next_double() < options.loss) {  // dropped in transit
        if (seed_block) blocks.pop_back();
        continue;
      }
      Survivor& survivor = survivors.emplace_back(Survivor{0, 0});
      if (options.corruption > 0.0 &&
          rng.next_double() < options.corruption) {  // damaged in transit
        survivor.flip_byte =
            static_cast<std::uint32_t>(rng.next_below(packet_bytes));
        survivor.flip_mask =
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
    }
  }
  first_survivor.push_back(survivors.size());

  // Every surviving packet is then coded straight into its slot, one
  // generation per pool index. Each packet's bytes depend only on its own
  // record, so the container does not depend on the pool.
  std::vector<std::uint8_t> out =
      large_zeroed_buffer(kFileHeaderBytes + survivors.size() * packet_bytes);
  pool.run_batch(encoder.generations(), [&](std::size_t g) {
    const auto generation = static_cast<std::uint32_t>(g);
    for (std::size_t i = first_survivor[g]; i < first_survivor[g + 1]; ++i) {
      const std::span<std::uint8_t> packet = std::span(out).subspan(
          kFileHeaderBytes + i * packet_bytes, packet_bytes);
      if (seed_block) {
        coding::serialize_into(generation, blocks[i], packet,
                               options.wire_format);
      } else {
        std::memcpy(packet.data() + coding::kWireHeaderBytes,
                    rows.data() + i * n, n);
        encoder.code_frame(generation, packet);
      }
      packet[survivors[i].flip_byte] ^= survivors[i].flip_mask;
    }
  });

  std::uint8_t* header = out.data();
  put_u32(header, kFileMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(options.params.n));
  put_u32(header + 8, static_cast<std::uint32_t>(options.params.k));
  put_u64(header + 12, content.size());
  put_u32(header + 20, static_cast<std::uint32_t>(encoder.generations()));
  put_u32(header + 24, static_cast<std::uint32_t>(survivors.size()));
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

FileDecodeResult decode_file(std::span<const std::uint8_t> container,
                             ThreadPool& pool) {
  FileDecodeResult result;
  const auto info = describe_file(container);
  if (!info.has_value()) {
    result.error = "not a coded file container";
    return result;
  }
  const coding::Params& params = info->params;
  const std::size_t packet_bytes =
      coding::wire_size(params, info->wire_format);
  // A truncated container still has its whole packets counted, as a
  // receiver reading it front to back would, before the error is reported.
  const std::size_t fit = (container.size() - kFileHeaderBytes) / packet_bytes;
  const bool truncated = info->packets > fit;
  const std::size_t packets = truncated ? fit : info->packets;
  auto packet_at = [&](std::size_t i) {
    return container.subspan(kFileHeaderBytes + i * packet_bytes,
                             packet_bytes);
  };

  // Bucket the packets by the generation id in their header (container
  // order kept within a generation) by sorting (id, index) pairs, so each
  // generation decodes on its own thread. Which bucket a packet lands in
  // does not decide its fate: the acceptance rule re-reads the id after the
  // CRC check, so a damaged id is rejected wherever it lands. An id out of
  // range is rejected here. Only generations with packets get a bucket.
  const std::uint32_t generations = info->generations;
  std::vector<std::uint64_t> keys;
  keys.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    const std::uint32_t id = coding::peek_generation(packet_at(i));
    if (id < generations) keys.push_back(std::uint64_t{id} << 32 | i);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::size_t> starts;  // bucket b is keys[starts[b], starts[b+1])
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (j == 0 || keys[j] >> 32 != keys[j - 1] >> 32) starts.push_back(j);
  }
  starts.push_back(keys.size());
  const std::size_t buckets = starts.size() - 1;
  result.packets_rejected = packets - keys.size();

  // The output is sized only when every generation can complete, i.e. each
  // has a bucket of at least n packets: with n packets of k payload bytes
  // per generation in the container, the generations' n*k bytes each
  // (`held`) cannot exceed the container.
  bool may_complete = !truncated && buckets == generations;
  for (std::size_t b = 0; may_complete && b < buckets; ++b) {
    may_complete = starts[b + 1] - starts[b] >= params.n;
  }
  const std::size_t generation_bytes = params.segment_bytes();
  std::size_t held = 0;
  if (may_complete) {
    held = std::size_t{generations} * generation_bytes;
    result.content = large_zeroed_buffer(
        static_cast<std::size_t>(std::min<std::uint64_t>(info->content_bytes,
                                                         held)));
  }

  // Each bucket decodes on its own decoder through the same acceptance
  // rule as GenerationDecoder::add_packet, and a complete generation is
  // copied into its slice of the output. As in add_packet, the decoder is
  // built by the first accepted packet, so the header's unchecked n and k
  // size nothing for a bucket whose packets are all rejected.
  struct Tally {
    std::size_t used = 0;
    std::size_t dependent = 0;
    std::size_t rejected = 0;
    bool complete = false;
  };
  std::vector<Tally> tallies(buckets);
  pool.run_batch(buckets, [&](std::size_t b) {
    Tally& tally = tallies[b];
    std::optional<coding::ProgressiveDecoder> decoder;
    for (std::size_t j = starts[b]; j < starts[b + 1]; ++j) {
      const auto packet = coding::GenerationDecoder::accept(
          packet_at(static_cast<std::uint32_t>(keys[j])), params, generations);
      if (!packet.has_value()) {
        ++tally.rejected;
        continue;
      }
      if (!decoder) decoder.emplace(params);
      if (coding::GenerationDecoder::feed(*decoder, *packet) ==
          coding::GenerationDecoder::Accept::kDependent) {
        ++tally.dependent;
      } else {
        ++tally.used;
      }
    }
    if (!decoder || !decoder->is_complete()) return;
    tally.complete = true;
    const std::size_t offset = (keys[starts[b]] >> 32) * generation_bytes;
    if (offset < result.content.size()) {
      std::memcpy(result.content.data() + offset,
                  decoder->decoded_bytes().data(),
                  std::min(generation_bytes, result.content.size() - offset));
    }
  });
  std::size_t complete = 0;
  for (const Tally& tally : tallies) {
    result.packets_used += tally.used;
    result.packets_dependent += tally.dependent;
    result.packets_rejected += tally.rejected;
    complete += tally.complete ? 1 : 0;
  }

  if (truncated) {
    result.error = "container truncated";
    result.content = {};
    return result;
  }
  if (complete < generations) {
    result.error = "insufficient independent packets (" +
                   std::to_string(complete) + "/" +
                   std::to_string(generations) + " generations complete)";
    result.content = {};
    return result;
  }
  // Every generation completed, so may_complete held and `held` is set.
  if (held < info->content_bytes) {
    result.error = "reassembled size inconsistent";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace extnc::net
