#include "util/file_io.h"

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace extnc {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(FileIo, RoundTrip) {
  Rng rng(1);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = rng.next_byte();
  const std::string path = temp_path("roundtrip.bin");
  ASSERT_TRUE(write_file(path, data));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  std::remove(path.c_str());
}

TEST(FileIo, EmptyFile) {
  const std::string path = temp_path("empty.bin");
  ASSERT_TRUE(write_file(path, {}));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
  std::remove(path.c_str());
}

TEST(FileIo, OverwriteTruncates) {
  const std::string path = temp_path("truncate.bin");
  std::vector<std::uint8_t> big(100, 1);
  std::vector<std::uint8_t> small(3, 2);
  ASSERT_TRUE(write_file(path, big));
  ASSERT_TRUE(write_file(path, small));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, small);
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileReturnsNullopt) {
  EXPECT_FALSE(read_file(temp_path("does-not-exist.bin")).has_value());
}

TEST(FileIo, UnwritablePathReturnsFalse) {
  const std::vector<std::uint8_t> data{1, 2, 3};
  EXPECT_FALSE(write_file("/proc/definitely/not/writable", data));
}

TEST(FileIo, LargeFileRoundTrip) {
  Rng rng(2);
  std::vector<std::uint8_t> data(512 * 1024 + 17);  // spans many chunks
  for (auto& b : data) b = rng.next_byte();
  const std::string path = temp_path("large.bin");
  ASSERT_TRUE(write_file(path, data));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  std::remove(path.c_str());
}

// A pipe has no size to allocate from; it is read in chunks to its end.
TEST(FileIo, ReadsAFifoToTheEnd) {
  const std::string path = temp_path("fifo.bin");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  Rng rng(3);
  std::vector<std::uint8_t> data(300 * 1024 + 5);
  for (auto& b : data) b = rng.next_byte();
  std::thread writer([&] { EXPECT_TRUE(write_file(path, data)); });
  const auto back = read_file(path);
  writer.join();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace extnc
