// SHA-256 block kernels behind support::Sha256 (support/hash.hpp).
//
// Private to the support library and its tests: callers hash through
// Sha256, which runs active_kernel(). Two kernels compress whole 64-byte
// blocks into the eight-word state:
//
//   * portable    — the FIPS 180-4 compression loop. Runs on every CPU and
//                   is the reference the hardware kernel is tested against
//                   (tests/support_test.cpp).
//   * x86 SHA     — SHA256RNDS2/SHA256MSG1/SHA256MSG2 over SSE registers,
//                   compiled with a GCC target attribute, so the rest of
//                   the build keeps its baseline ISA. Built on x86-64 and
//                   present only when CPUID reports SHA, SSSE3 and SSE4.1.
//
// Both produce bit-identical states for the same blocks; the choice is
// made once per process, at first use, with nothing to configure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dydroid::support::sha256_detail {

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
