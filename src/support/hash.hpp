// Hashes used across the stack, by strength class:
//   * CRC-32         — error *detection* (SimApk file table, journal and
//                      cache frames). Catches bit flips, not adversaries.
//                      Inputs of 64 bytes and more fold 16 bytes at a time
//                      with carry-less multiplies (PCLMULQDQ) on x86-64
//                      CPUs whose CPUID reports PCLMULQDQ and SSE4.1; the
//                      tail, shorter inputs and every other CPU run the
//                      portable slicing-by-8 loop
//                      (support/hash_kernels.hpp). Picked once per
//                      process, at first use; both give the same CRC.
//   * FNV-1a (64)    — cheap structural fingerprints for display and
//                      non-identity bucketing only. 64 bits of non-crypto
//                      mixing collide under birthday pressure (a corpus of
//                      2^32 binaries expects a collision) and collisions
//                      are craftable, so NOTHING that decides identity —
//                      cache keys, dedup tables, signatures-as-identity —
//                      may bottom out here.
//   * SHA-256        — content identity. The result cache, the
//                      unique-binary dedup table (docs/CACHE.md) and the
//                      per-binary verdict memo (core/verdict_memo.hpp) key
//                      on it, the way the paper dedups 58,739 apps'
//                      payloads by content hash before analyzing each
//                      unique binary once. An intercepted payload's digest
//                      is taken once, where its bytes enter a report
//                      (core::InterceptedBinary::set_bytes). Whole 64-byte
//                      blocks run on the x86 SHA extensions on x86-64 CPUs
//                      whose CPUID reports SHA, SSSE3 and SSE4.1, and on
//                      the portable FIPS 180-4 loop on every other CPU
//                      (support/hash_kernels.hpp). The kernel is picked
//                      once per process, at first use; there is no
//                      option, and both give the same digest.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace dydroid::support {

/// 64-bit FNV-1a over a byte span.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);
/// 64-bit FNV-1a over a string.
std::uint64_t fnv1a64(std::string_view s);
/// Combine two 64-bit hashes (boost::hash_combine style).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// CRC-32 (IEEE 802.3 polynomial): the SimApk file table and every frame
/// of the journal layer.
std::uint32_t crc32(std::span<const std::uint8_t> data);

// ---- SHA-256 (FIPS 180-4) --------------------------------------------------

/// A SHA-256 digest: the content-identity primitive behind the result
/// cache and the corpus-wide binary dedup table. Totally ordered and
/// hashable so it can key maps directly.
struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  /// Lowercase hex (64 chars), the on-report spelling.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const Sha256Digest&, const Sha256Digest&) = default;
  friend auto operator<=>(const Sha256Digest&, const Sha256Digest&) = default;
};

/// Incremental SHA-256: update() in any chunking, then digest(). Verified
/// against the NIST FIPS 180-4 test vectors (tests/support_test.cpp).
class Sha256 {
 public:
  Sha256();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);
  /// Finalize and return the digest. The hasher must not be updated again.
  [[nodiscard]] Sha256Digest digest();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

/// One-shot SHA-256 of a byte span (Blob converts implicitly).
[[nodiscard]] Sha256Digest sha256(std::span<const std::uint8_t> data);
/// One-shot SHA-256 of a string's characters.
[[nodiscard]] Sha256Digest sha256(std::string_view s);

/// std::hash-compatible functor so Sha256Digest can key unordered maps
/// (the digest is already uniform; take the leading bytes).
struct Sha256DigestHash {
  std::size_t operator()(const Sha256Digest& d) const {
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      h = (h << 8) | d.bytes[i];
    }
    return h;
  }
};

}  // namespace dydroid::support
