#include "net/checksum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xmem::net {

namespace {

std::uint64_t sum_words(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint64_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<std::uint64_t>(data[i]) << 8;
  }
  return sum;
}

std::uint16_t fold(std::uint64_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

// kCrcTables[k][b] is the CRC register after byte b followed by k zero
// bytes, so one slicing-by-8 step looks up each of its eight bytes by
// distance from the end of the step. kCrcTables[0] is the classic
// byte-at-a-time table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(std::span<const std::uint8_t> data, std::size_t i) {
  return static_cast<std::uint32_t>(data[i]) |
         static_cast<std::uint32_t>(data[i + 1]) << 8 |
         static_cast<std::uint32_t>(data[i + 2]) << 16 |
         static_cast<std::uint32_t>(data[i + 3]) << 24;
}

// Both kernels advance the raw CRC register; the detail:: entry points
// apply the pre- and post-inversion.
std::uint32_t slicing8_update(std::uint32_t c,
                              std::span<const std::uint8_t> data) {
  const CrcTables& t = kCrcTables;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint32_t lo = load_le32(data, i) ^ c;
    const std::uint32_t hi = load_le32(data, i + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; i < data.size(); ++i) {
    c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// The folding functions are compiled for PCLMULQDQ and SSE4.1 alone, so
// the build flags stay baseline x86-64; crc32() calls them only on CPUs
// that report both.
#define XMEM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

// Carry-less-multiply folding for the reflected polynomial, after Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009). Every constant is bit-reflected and shifted
// left by one. A fold constant is x^n mod P(x) for the distance n it moves
// data across; Lo/Hi multiplies the low/high 64 bits of a 128-bit lane.
constexpr long long kFold64Lo = 0x154442bd4;     // x^(4*128+32) mod P
constexpr long long kFold64Hi = 0x1c6e41596;     // x^(4*128-32) mod P
constexpr long long kFold16Lo = 0x1751997d0;     // x^(128+32) mod P
constexpr long long kFold16Hi = 0x0ccaa009e;     // x^(128-32) mod P
constexpr long long kFold64To32 = 0x163cd6124;   // x^64 mod P
constexpr long long kBarrettPoly = 0x1db710641;  // P(x)
constexpr long long kBarrettMu = 0x1f7011641;    // x^64 div P(x)

// An unaligned 16-byte load. Copying through a byte array keeps the code
// free of pointer casts; the compiler emits a single unaligned load.
XMEM_CLMUL_TARGET __m128i load16(const std::uint8_t* p) {
  std::array<std::uint8_t, 16> bytes{};
  std::copy_n(p, bytes.size(), bytes.begin());
  return std::bit_cast<__m128i>(bytes);
}

// Moves the 128-bit remainder `acc` forward over the distance `k` encodes
// and adds the next 16 bytes of input.
XMEM_CLMUL_TARGET __m128i fold16(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Requires data.size() >= 64 and a multiple of 16.
XMEM_CLMUL_TARGET std::uint32_t clmul_update(
    std::uint32_t c, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const __m128i k64 = _mm_set_epi64x(kFold64Hi, kFold64Lo);
  const __m128i k16 = _mm_set_epi64x(kFold16Hi, kFold16Lo);
  // Four independent lanes, 64 B per step, hide the multiplier latency.
  const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(c));
  __m128i x0 = _mm_xor_si128(load16(p), seed);
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  std::size_t i = 64;
  for (; i + 64 <= data.size(); i += 64) {
    x0 = fold16(x0, k64, load16(p + i));
    x1 = fold16(x1, k64, load16(p + i + 16));
    x2 = fold16(x2, k64, load16(p + i + 32));
    x3 = fold16(x3, k64, load16(p + i + 48));
  }
  // Fold the lanes into one, then the remaining 16-byte blocks into it.
  x0 = fold16(x0, k16, x1);
  x0 = fold16(x0, k16, x2);
  x0 = fold16(x0, k16, x3);
  for (; i < data.size(); i += 16) {
    x0 = fold16(x0, k16, load16(p + i));
  }
  // 128 -> 64 bits, then 64 -> 32 bits (appending the 32 zero bits a CRC
  // register implies), then Barrett reduction to the 32-bit remainder.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const __m128i k5 = _mm_set_epi64x(0, kFold64To32);
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kBarrettPoly);
  const __m128i lo64 = _mm_clmulepi64_si128(x0, k16, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), lo64);
  const __m128i lo32 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4), lo32);
  __m128i q = _mm_and_si128(x0, low32);
  q = _mm_clmulepi64_si128(q, barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  x0 = _mm_xor_si128(x0, q);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

#undef XMEM_CLMUL_TARGET

#endif  // __x86_64__

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_words(data));
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
#if defined(__x86_64__)
  static const bool clmul = detail::crc32_clmul_supported();
  if (clmul) return detail::crc32_clmul(data, seed);
#endif
  return detail::crc32_slicing8(data, seed);
}

namespace detail {

std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data,
                             std::uint32_t seed) {
  return slicing8_update(seed ^ 0xffffffffu, data) ^ 0xffffffffu;
}

bool crc32_clmul_supported() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

#if defined(__x86_64__)
std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                          std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffu;
  if (data.size() >= 64) {
    const std::size_t body = data.size() & ~std::size_t{15};
    c = clmul_update(c, data.first(body));
    data = data.subspan(body);
  }
  return slicing8_update(c, data) ^ 0xffffffffu;
}
#endif

}  // namespace detail

}  // namespace xmem::net
