#include "gf256/region.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gf256/gf.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace extnc::gf256 {
namespace {

TEST(RegionRegistry, ScalarAlwaysAvailable) {
  EXPECT_NE(find_backend("scalar"), nullptr);
  EXPECT_EQ(available_backends().back()->name, std::string("scalar"));
}

TEST(RegionRegistry, UnknownBackendIsNull) {
  EXPECT_EQ(find_backend("does-not-exist"), nullptr);
}

TEST(RegionRegistry, DefaultIsFirstAvailable) {
  // The suite runs under EXTNC_GF256_BACKEND in the forced-backend CI
  // matrix; ops() must then be the forced backend, not the ladder's pick.
  const char* forced = std::getenv("EXTNC_GF256_BACKEND");
  if (forced != nullptr && *forced != '\0') {
    EXPECT_EQ(&ops(), find_backend(forced));
  } else {
    EXPECT_EQ(&ops(), available_backends().front());
  }
}

TEST(RegionRegistry, EveryAvailableBackendIsRegistered) {
  // The registry is self-describing: every runnable backend's name appears
  // in registered_backend_names() and round-trips through find_backend.
  const auto registered = registered_backend_names();
  for (const Ops* backend : available_backends()) {
    EXPECT_NE(std::find(registered.begin(), registered.end(),
                        std::string_view(backend->name)),
              registered.end())
        << backend->name << " missing from registered_backend_names()";
    EXPECT_EQ(find_backend(backend->name), backend);
  }
}

TEST(RegionRegistry, ResolveEmptyPicksBest) {
  EXPECT_EQ(resolve_backend("", nullptr), available_backends().front());
}

TEST(RegionRegistry, ResolveKnownName) {
  std::string error;
  EXPECT_EQ(resolve_backend("scalar", &error), &scalar_ops());
  EXPECT_TRUE(error.empty());
}

TEST(RegionRegistry, ResolveUnknownNameListsSupportedSet) {
  std::string error;
  EXPECT_EQ(resolve_backend("frobnicate", &error), nullptr);
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
  // The message enumerates every runnable backend so a typo'd
  // EXTNC_GF256_BACKEND is self-correcting.
  for (const Ops* backend : available_backends()) {
    EXPECT_NE(error.find(backend->name), std::string::npos)
        << "error message missing " << backend->name << ": " << error;
  }
}

TEST(RegionRegistry, AvailableBackendListIsCommaSeparated) {
  std::string expected;
  for (const Ops* backend : available_backends()) {
    if (!expected.empty()) expected += ", ";
    expected += backend->name;
  }
  EXPECT_EQ(available_backend_list(), expected);
}

// memcmp is declared nonnull; a zero-length AlignedBuffer hands out nullptr.
bool regions_equal(const AlignedBuffer& a, const AlignedBuffer& b,
                   std::size_t len) {
  return len == 0 || std::memcmp(a.data(), b.data(), len) == 0;
}

// Byte-at-a-time arithmetic straight from the field definition (gf.h).
// It is the last RegionBackend case after the host's backends, so the
// scalar table backend, every other case's ground truth, is itself
// checked against mul().
void field_add(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = add(dst[i], src[i]);
}
void field_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = mul(c, src[i]);
}
void field_mul_add(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                   std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = add(dst[i], mul(c, src[i]));
}
void field_scale(std::uint8_t* dst, std::uint8_t c, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = mul(c, dst[i]);
}
void field_mul_add_regions(std::uint8_t* dst,
                           const std::uint8_t* const* srcs,
                           const std::uint8_t* coeffs, std::size_t count,
                           std::size_t len) {
  for (std::size_t j = 0; j < count; ++j) {
    field_mul_add(dst, srcs[j], coeffs[j], len);
  }
}
const Ops kFieldOps{"field",       field_add,   field_mul,
                    field_mul_add, field_scale, field_mul_add_regions};

// Cross-check every available backend, then the field reference, against
// the scalar backend over a sweep of (case index, length) pairs including
// awkward unaligned lengths. Case i < available_backends().size() is the
// host's i-th backend, case size() is the field reference, and higher
// indices skip.
class RegionBackend
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  void SetUp() override {
    const std::size_t index = std::get<0>(GetParam());
    const auto& backends = available_backends();
    if (index < backends.size()) {
      backend_ = backends[index];
    } else if (index == backends.size()) {
      backend_ = &kFieldOps;
    } else {
      GTEST_SKIP() << "no backend at index " << index << " on this host";
    }
  }
  const Ops& backend() const { return *backend_; }
  std::size_t length() const { return std::get<1>(GetParam()); }

 private:
  const Ops* backend_ = nullptr;
};

TEST_P(RegionBackend, MulAddMatchesScalar) {
  Rng rng(77);
  const std::size_t len = length();
  AlignedBuffer src(len + 1);
  AlignedBuffer dst(len + 1);
  AlignedBuffer expected(len + 1);
  for (int c : {0, 1, 2, 0x53, 0xca, 0xff}) {
    for (std::size_t i = 0; i < len; ++i) {
      src[i] = rng.next_byte();
      dst[i] = rng.next_byte();
      expected[i] = dst[i];
    }
    const std::uint8_t sentinel = rng.next_byte();
    dst[len] = sentinel;
    scalar_ops().mul_add_region(expected.data(), src.data(),
                                static_cast<std::uint8_t>(c), len);
    backend().mul_add_region(dst.data(), src.data(),
                             static_cast<std::uint8_t>(c), len);
    ASSERT_EQ(0, std::memcmp(dst.data(), expected.data(), len))
        << backend().name << " c=" << c << " len=" << len;
    ASSERT_EQ(dst[len], sentinel) << "wrote past end";
  }
}

TEST_P(RegionBackend, MulMatchesScalar) {
  Rng rng(78);
  const std::size_t len = length();
  AlignedBuffer src(len);
  AlignedBuffer dst(len);
  AlignedBuffer expected(len);
  for (int c : {0, 1, 0x02, 0x8d, 0xff}) {
    for (std::size_t i = 0; i < len; ++i) src[i] = rng.next_byte();
    scalar_ops().mul_region(expected.data(), src.data(),
                            static_cast<std::uint8_t>(c), len);
    backend().mul_region(dst.data(), src.data(), static_cast<std::uint8_t>(c),
                         len);
    ASSERT_TRUE(regions_equal(dst, expected, len))
        << backend().name << " c=" << c;
  }
}

TEST_P(RegionBackend, AddMatchesScalar) {
  Rng rng(79);
  const std::size_t len = length();
  AlignedBuffer src(len);
  AlignedBuffer dst(len);
  AlignedBuffer expected(len);
  for (std::size_t i = 0; i < len; ++i) {
    src[i] = rng.next_byte();
    dst[i] = rng.next_byte();
    expected[i] = dst[i];
  }
  scalar_ops().add_region(expected.data(), src.data(), len);
  backend().add_region(dst.data(), src.data(), len);
  ASSERT_TRUE(regions_equal(dst, expected, len));
}

TEST_P(RegionBackend, ScaleMatchesScalar) {
  Rng rng(80);
  const std::size_t len = length();
  AlignedBuffer dst(len);
  AlignedBuffer expected(len);
  for (int c : {0, 1, 0x1b, 0xfe}) {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = rng.next_byte();
      expected[i] = dst[i];
    }
    scalar_ops().scale_region(expected.data(), static_cast<std::uint8_t>(c),
                              len);
    backend().scale_region(dst.data(), static_cast<std::uint8_t>(c), len);
    ASSERT_TRUE(regions_equal(dst, expected, len));
  }
}

TEST_P(RegionBackend, MulAddRegionsMatchesSequentialScalar) {
  Rng rng(83);
  const std::size_t len = length();
  // Sweep source counts across group-size boundaries (the vector kernels
  // batch 8 sources), with zero coefficients sprinkled in — including
  // all-zero and trailing-zero groups.
  for (const std::size_t count : {0u, 1u, 2u, 7u, 8u, 9u, 16u, 17u, 37u}) {
    std::vector<AlignedBuffer> sources;
    sources.reserve(count);
    std::vector<const std::uint8_t*> srcs(count);
    std::vector<std::uint8_t> coeffs(count);
    for (std::size_t j = 0; j < count; ++j) {
      sources.emplace_back(len);
      for (std::size_t i = 0; i < len; ++i) sources[j][i] = rng.next_byte();
      srcs[j] = sources[j].data();
      // ~1 in 3 coefficients zero, and the last group all zero when large.
      coeffs[j] = (rng.next_byte() % 3 == 0 || (count > 20 && j >= count - 6))
                      ? 0
                      : rng.next_byte();
    }
    AlignedBuffer dst(len + 1);
    AlignedBuffer expected(len + 1);
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = rng.next_byte();
      expected[i] = dst[i];
    }
    const std::uint8_t sentinel = rng.next_byte();
    dst[len] = sentinel;
    for (std::size_t j = 0; j < count; ++j) {
      scalar_ops().mul_add_region(expected.data(), srcs[j], coeffs[j], len);
    }
    backend().mul_add_regions(dst.data(), srcs.data(), coeffs.data(), count,
                              len);
    ASSERT_EQ(0, len == 0 ? 0 : std::memcmp(dst.data(), expected.data(), len))
        << backend().name << " count=" << count << " len=" << len;
    ASSERT_EQ(dst[len], sentinel)
        << backend().name << " wrote past end, count=" << count;
  }
}

TEST_P(RegionBackend, UnalignedHeadsAndTailsMatchScalar) {
  Rng rng(84);
  const std::size_t len = length();
  // Offset dst and src independently off the allocation's alignment so the
  // vector paths exercise their peel/mask head and tail handling, with
  // sentinels on both sides of the destination window.
  constexpr std::size_t kMaxOffset = 13;
  AlignedBuffer src_buf(len + 2 * kMaxOffset);
  AlignedBuffer dst_buf(len + 2 * kMaxOffset + 1);
  AlignedBuffer exp_buf(len + 2 * kMaxOffset + 1);
  for (const std::size_t dst_off : {1u, 3u, 13u}) {
    for (const std::size_t src_off : {0u, 5u}) {
      for (std::size_t i = 0; i < dst_buf.size(); ++i) {
        dst_buf[i] = rng.next_byte();
        exp_buf[i] = dst_buf[i];
      }
      for (std::size_t i = 0; i < src_buf.size(); ++i) {
        src_buf[i] = rng.next_byte();
      }
      scalar_ops().mul_add_region(exp_buf.data() + dst_off,
                                  src_buf.data() + src_off, 0xb7, len);
      backend().mul_add_region(dst_buf.data() + dst_off,
                               src_buf.data() + src_off, 0xb7, len);
      ASSERT_TRUE(dst_buf == exp_buf)
          << backend().name << " len=" << len << " dst_off=" << dst_off
          << " src_off=" << src_off;
    }
  }
}

// Index range covers every registered backend (6 names) plus the field
// reference; indices beyond what this host supports skip in SetUp.
INSTANTIATE_TEST_SUITE_P(
    AllBackendsAndLengths, RegionBackend,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Values(0u, 1u, 7u, 8u, 15u, 16u, 17u, 31u,
                                         32u, 33u, 63u, 64u, 100u, 255u, 256u,
                                         1000u, 4096u)));

TEST(Region, MulAddIsLinearInCoefficient) {
  // (a ^ b) * src == a*src ^ b*src, exercised through region ops.
  Rng rng(81);
  const std::size_t len = 512;
  AlignedBuffer src(len);
  for (std::size_t i = 0; i < len; ++i) src[i] = rng.next_byte();
  for (int trial = 0; trial < 32; ++trial) {
    const std::uint8_t a = rng.next_byte();
    const std::uint8_t b = rng.next_byte();
    AlignedBuffer lhs(len);
    AlignedBuffer rhs(len);
    ops().mul_add_region(lhs.data(), src.data(), a ^ b, len);
    ops().mul_add_region(rhs.data(), src.data(), a, len);
    ops().mul_add_region(rhs.data(), src.data(), b, len);
    ASSERT_TRUE(lhs == rhs);
  }
}

TEST(Region, MulAddTwiceCancels) {
  // Adding c*src twice must cancel (characteristic 2).
  Rng rng(82);
  const std::size_t len = 333;
  AlignedBuffer src(len);
  AlignedBuffer dst(len);
  AlignedBuffer original(len);
  for (std::size_t i = 0; i < len; ++i) {
    src[i] = rng.next_byte();
    dst[i] = rng.next_byte();
    original[i] = dst[i];
  }
  ops().mul_add_region(dst.data(), src.data(), 0x5a, len);
  ops().mul_add_region(dst.data(), src.data(), 0x5a, len);
  EXPECT_TRUE(dst == original);
}

}  // namespace
}  // namespace extnc::gf256
