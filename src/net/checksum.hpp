// Internet checksum (RFC 1071) and CRC-32 (as used by Ethernet FCS and,
// with RoCE's masking rules, the InfiniBand ICRC).
#pragma once

#include <cstdint>
#include <span>

namespace xmem::net {

/// RFC 1071 16-bit one's-complement checksum over `data`.
/// Returns the value ready to store in a header (already complemented).
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::uint8_t> data);

/// Reflected CRC-32 (polynomial 0xEDB88320), the Ethernet/zlib CRC.
/// `seed` allows chaining; pass the previous return value to continue.
/// Runs detail::crc32_clmul() on CPUs that support it (checked once per
/// process), detail::crc32_slicing8() everywhere else; both return the
/// same value for every input.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0);

/// The kernels behind crc32(), exposed so tests can check each one.
namespace detail {

/// Slicing-by-8: eight bytes per step through eight 256-entry tables.
/// Portable; any input on any CPU.
[[nodiscard]] std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data,
                                           std::uint32_t seed);

/// True on x86-64 CPUs with PCLMULQDQ and SSE4.1, false elsewhere.
[[nodiscard]] bool crc32_clmul_supported();

#if defined(__x86_64__)
/// Carry-less-multiply folding (PCLMULQDQ) over the 16-byte-multiple body
/// of inputs of 64 B or more; slicing-by-8 for the rest. Call only when
/// crc32_clmul_supported().
[[nodiscard]] std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                                        std::uint32_t seed);
#endif

}  // namespace detail

}  // namespace xmem::net
