// Hash kernels behind support::Sha256 and support::crc32
// (support/hash.hpp).
//
// Private to the support library and its tests: callers hash through
// Sha256 and crc32, which run each family's active_kernel(). Every family
// has a portable kernel that runs on every CPU and is the reference its
// hardware kernel is tested against (tests/support_test.cpp), and a
// hardware kernel compiled with a GCC target attribute, so the rest of the
// build keeps its baseline ISA. A hardware kernel is built on x86-64 and
// present only when CPUID reports the instructions it uses. Both kernels of
// a family give bit-identical results; the choice is made once per
// process, at first use, with nothing to configure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dydroid::support::sha256_detail {

// SHA-256 compresses whole 64-byte blocks into the eight-word state:
//
//   * portable    — the FIPS 180-4 compression loop.
//   * x86 SHA     — SHA256RNDS2/SHA256MSG1/SHA256MSG2 over SSE registers;
//                   needs SHA, SSSE3 and SSE4.1.

/// Compress `blocks` consecutive 64-byte blocks starting at `data` into
/// `state` (FIPS 180-4 word order: state[0] is H0).
using Kernel = void (*)(std::array<std::uint32_t, 8>& state,
                        const std::uint8_t* data, std::size_t blocks);

/// The FIPS 180-4 loop.
void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* data, std::size_t blocks);

/// The x86 SHA-extensions kernel, or nullptr off x86-64 and where the CPU
/// lacks SHA, SSSE3 or SSE4.1.
[[nodiscard]] Kernel hardware_kernel();

/// The kernel Sha256 runs: hardware_kernel() when there is one, else
/// compress_portable. Decided at the first call.
[[nodiscard]] Kernel active_kernel();

}  // namespace dydroid::support::sha256_detail

namespace dydroid::support::crc32_detail {

// CRC-32 (reflected IEEE polynomial 0xEDB88320) advances the inverted CRC
// register over any number of bytes:
//
//   * portable    — slicing-by-8 table lookups, 8 bytes per step.
//   * PCLMULQDQ   — carry-less-multiply folding of 16-byte blocks (Gopal
//                   et al., "Fast CRC Computation for Generic Polynomials
//                   Using PCLMULQDQ Instruction", Intel 2009) with a
//                   Barrett reduction to 32 bits, for inputs of 64 bytes
//                   and more; the sub-16-byte tail and shorter inputs run
//                   the portable loop. Needs PCLMULQDQ and SSE4.1.

/// Advance `crc`, the register as kept between calls (crc32() starts it at
/// 0xFFFFFFFF and inverts the result), over `size` bytes at `data`.
using Kernel = std::uint32_t (*)(std::uint32_t crc, const std::uint8_t* data,
                                 std::size_t size);

/// The slicing-by-8 loop.
[[nodiscard]] std::uint32_t update_portable(std::uint32_t crc,
                                            const std::uint8_t* data,
                                            std::size_t size);

/// The PCLMULQDQ folding kernel, or nullptr off x86-64 and where the CPU
/// lacks PCLMULQDQ or SSE4.1.
[[nodiscard]] Kernel hardware_kernel();

/// The kernel crc32 runs: hardware_kernel() when there is one, else
/// update_portable. Decided at the first call.
[[nodiscard]] Kernel active_kernel();

}  // namespace dydroid::support::crc32_detail
