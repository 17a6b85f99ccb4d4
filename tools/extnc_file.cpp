// extnc_file — command-line coded file transfer.
//
//   extnc_file encode <input> <output.xnc> [options]
//       --n N            blocks per generation       (default 32)
//       --k K            block size, bytes           (default 1024)
//       --redundancy R   extra coded packets, 0.25 = +25%  (default 0)
//       --loss P         simulated drop fraction     (default 0)
//       --corrupt P      simulated bit-flip fraction (default 0)
//       --v1             legacy wire format, no packet checksums
//       --systematic     emit source blocks first
//       --seed S         RNG seed                    (default 1)
//   extnc_file decode <input.xnc> <output>
//   extnc_file info   <input.xnc>
//
// Exit status 0 on success. `encode --loss 0.2 --redundancy 0.3` followed
// by `decode` demonstrates loss recovery end to end; `--corrupt 0.1`
// additionally demonstrates the wire CRC rejecting damaged packets.
#include <cstdio>
#include <cstring>
#include <string>

#include "net/file_transfer.h"
#include "util/cli_flags.h"
#include "util/file_io.h"

namespace {

using namespace extnc;

int usage() {
  std::fprintf(stderr,
               "usage: extnc_file encode <input> <output.xnc> [--n N] [--k K]"
               " [--redundancy R] [--loss P] [--corrupt P] [--v1]"
               " [--systematic] [--seed S]\n"
               "       extnc_file decode <input.xnc> <output>\n"
               "       extnc_file info   <input.xnc>\n");
  return 2;
}

int cmd_encode(int argc, char** argv) {
  if (argc < 4) return usage();
  using Kind = CliFlag::Kind;
  std::string error;
  const auto flags = CliFlags::parse(argc, argv, 4,
                                     {{"--n", Kind::kSize},
                                      {"--k", Kind::kSize},
                                      {"--redundancy", Kind::kNumber},
                                      {"--loss", Kind::kNumber},
                                      {"--corrupt", Kind::kNumber},
                                      {"--v1", Kind::kBool},
                                      {"--systematic", Kind::kBool},
                                      {"--seed", Kind::kNumber}},
                                     &error);
  if (!flags) {
    std::fprintf(stderr, "extnc_file encode: %s\n", error.c_str());
    return usage();
  }
  net::FileEncodeOptions options;
  options.params.n = flags->size("--n", options.params.n);
  options.params.k = flags->size("--k", options.params.k);
  options.redundancy = flags->number("--redundancy", options.redundancy);
  options.loss = flags->number("--loss", options.loss);
  options.corruption = flags->number("--corrupt", options.corruption);
  if (flags->has("--v1")) options.wire_format = coding::WireFormat::kV1;
  options.systematic = flags->has("--systematic");
  const double seed = flags->number("--seed", 1);
  if (!(seed >= 0 && seed < 0x1p64)) {
    std::fprintf(stderr, "extnc_file encode: --seed must be in [0, 2^64)\n");
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(seed);
  if (!(options.redundancy >= 0) || !(options.loss >= 0) ||
      !(options.loss < 1) || !(options.corruption >= 0) ||
      !(options.corruption <= 1)) {
    std::fprintf(stderr,
                 "extnc_file encode: need --redundancy >= 0, 0 <= --loss < 1"
                 " and 0 <= --corrupt <= 1\n");
    return 2;
  }
  const auto content = read_file(argv[2]);
  if (!content.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  const auto container = net::encode_file(*content, options);
  if (!write_file(argv[3], container)) {
    std::fprintf(stderr, "cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf("%s: %zu bytes -> %zu coded bytes (n=%zu, k=%zu, "
              "redundancy=%.0f%%, loss=%.0f%%, corrupt=%.0f%%)\n",
              argv[3], content->size(), container.size(), options.params.n,
              options.params.k, 100 * options.redundancy, 100 * options.loss,
              100 * options.corruption);
  return 0;
}

int cmd_decode(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto container = read_file(argv[2]);
  if (!container.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  const net::FileDecodeResult result = net::decode_file(*container);
  if (!result.ok) {
    std::fprintf(stderr, "decode failed: %s\n", result.error.c_str());
    return 1;
  }
  if (!write_file(argv[3], result.content)) {
    std::fprintf(stderr, "cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf("%s: %zu bytes (packets: %zu used, %zu dependent, %zu "
              "rejected)\n",
              argv[3], result.content.size(), result.packets_used,
              result.packets_dependent, result.packets_rejected);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto container = read_file(argv[2]);
  if (!container.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  const auto info = net::describe_file(*container);
  if (!info.has_value()) {
    std::fprintf(stderr, "%s: not a coded file container\n", argv[2]);
    return 1;
  }
  std::printf("coded file container\n");
  std::printf("  generation shape : n=%zu blocks x k=%zu bytes\n",
              info->params.n, info->params.k);
  std::printf("  content length   : %llu bytes\n",
              static_cast<unsigned long long>(info->content_bytes));
  std::printf("  generations      : %u\n", info->generations);
  std::printf("  packets          : %u (%.1f%% of minimum)\n", info->packets,
              100.0 * info->packets /
                  (static_cast<double>(info->generations) * info->params.n));
  std::printf("  wire format      : %s\n",
              info->wire_format == coding::WireFormat::kV2
                  ? "XNC2 (CRC32C per packet)"
                  : "XNC1 (legacy, no checksums)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "encode") == 0) return cmd_encode(argc, argv);
  if (std::strcmp(argv[1], "decode") == 0) return cmd_decode(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return cmd_info(argc, argv);
  return usage();
}
