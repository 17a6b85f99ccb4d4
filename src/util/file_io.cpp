#include "util/file_io.h"

#include <sys/stat.h>

#include <cstdio>

#include "util/large_buffer.h"

namespace extnc {

namespace {

// Bytes a regular file holds now; 0 for anything else (a pipe, a device)
// or when the size cannot be read.
std::size_t regular_file_size(std::FILE* file) {
  struct stat info {};
  if (::fstat(::fileno(file), &info) != 0 || !S_ISREG(info.st_mode)) return 0;
  return static_cast<std::size_t>(info.st_size);
}

}  // namespace

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  // Sized once from the file's size and read straight into place. Whatever
  // follows (everything, for a pipe; the new tail of a growing file) is
  // read on in chunks until end of file.
  std::vector<std::uint8_t> data = large_zeroed_buffer(regular_file_size(file));
  data.resize(data.empty() ? 0 : std::fread(data.data(), 1, data.size(), file));
  std::uint8_t buffer[64 * 1024];
  std::size_t bytes_read;
  while ((bytes_read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.insert(data.end(), buffer, buffer + bytes_read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return std::nullopt;
  return data;
}

bool write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written =
      data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), file);
  const bool ok = written == data.size() && std::fclose(file) == 0;
  if (!ok && written != data.size()) std::fclose(file);
  return ok;
}

}  // namespace extnc
