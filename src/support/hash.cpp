#include "support/hash.hpp"

#include <algorithm>
#include <array>

#include "support/hash_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dydroid::support {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// CRC-32 (zlib polynomial) lookup tables for slicing-by-8: tables[0] is
/// the classic byte-at-a-time table; tables[j] advances a byte that sits
/// j positions deeper in the stream. Produces bit-identical CRCs to the
/// scalar loop while consuming 8 bytes per iteration. The portable CRC-32
/// kernel, and the tail of the PCLMULQDQ one.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t j = 1; j < 8; ++j) {
      c = tables[0][c & 0xff] ^ (c >> 8);
      tables[j][i] = c;
    }
  }
  return tables;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = kFnvOffset;
  for (const auto b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
}

// ---- SHA-256 (FIPS 180-4) --------------------------------------------------

namespace {

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// One 64-byte block of the FIPS 180-4 compression loop.
void compress_block(std::array<std::uint32_t, 8>& state,
                    const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace sha256_detail {

void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) compress_block(state, data);
}

#if defined(__x86_64__)

namespace {

/// The x86 SHA extensions (Intel SHA-NI). SHA256RNDS2 runs two rounds on
/// the state held as ABEF/CDGH register halves; SHA256MSG1/MSG2 extend the
/// message schedule four words at a time. Compiled for that ISA by the
/// target attribute alone (SSE2, which the loads use, is baseline on
/// x86-64); only ever called after the CPUID check.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_x86_sha(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t blocks) {
  // Message words are big-endian: byte-swap each 32-bit lane on load.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  const auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  // DCBA/HGFE in memory order -> ABEF/CDGH, the round instructions' layout.
  const __m128i dcba = load(&state[0]);
  const __m128i hgfe = load(&state[4]);
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[q & 3] holds schedule words 4q..4q+3 while quad q is in flight.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(load(data + 16 * i), bswap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      const __m128i wk = _mm_add_epi32(w[q & 3], load(&kSha256K[4 * q]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (q < 12) {
        // W[t+16..t+19] = sigma1 terms + W[t+9..t+12] + sigma0 terms +
        // W[t..t+3], for t = 4q: replaces the quad just consumed.
        __m128i next = _mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4));
        w[q & 3] = _mm_sha256msg2_epu32(next, w[(q + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & bit_SHA) != 0;
}

}  // namespace

Kernel hardware_kernel() {
  static const Kernel kernel =
      cpu_has_sha_extensions() ? &compress_x86_sha : nullptr;
  return kernel;
}

#else

Kernel hardware_kernel() { return nullptr; }

#endif

Kernel active_kernel() {
  static const Kernel kernel =
      hardware_kernel() != nullptr ? hardware_kernel() : &compress_portable;
  return kernel;
}

}  // namespace sha256_detail

Sha256::Sha256() { state_ = kSha256Init; }

void Sha256::update(std::span<const std::uint8_t> data) {
  const sha256_detail::Kernel kernel = sha256_detail::active_kernel();
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::copy_n(p, take, buffer_.begin() + static_cast<long>(buffered_));
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == buffer_.size()) {
      kernel(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Every whole block of the call in one kernel call.
  if (n >= 64) {
    kernel(state_, p, n / 64);
    p += n - n % 64;
    n %= 64;
  }
  if (n > 0) {
    std::copy_n(p, n, buffer_.begin());
    buffered_ = n;
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Sha256Digest Sha256::digest() {
  const sha256_detail::Kernel kernel = sha256_detail::active_kernel();
  // Pad in place: 0x80, zeros up to byte 56 of a block (spilling into a
  // second block when fewer than 9 bytes are free), then the message
  // length in bits, big-endian. update() never leaves a full buffer.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<long>(buffered_), buffer_.end(),
              std::uint8_t{0});
    kernel(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<long>(buffered_),
            buffer_.begin() + 56, std::uint8_t{0});
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  kernel(state_, buffer_.data(), 1);
  buffered_ = 0;
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kHex[bytes[i] >> 4];
    out[2 * i + 1] = kHex[bytes[i] & 0xf];
  }
  return out;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.digest();
}

Sha256Digest sha256(std::string_view s) {
  Sha256 hasher;
  hasher.update(s);
  return hasher.digest();
}

// ---- CRC-32 ---------------------------------------------------------------

namespace crc32_detail {

std::uint32_t update_portable(std::uint32_t crc, const std::uint8_t* data,
                              std::size_t size) {
  static const auto tables = make_crc_tables();
  std::uint32_t c = crc;
  const std::uint8_t* p = data;
  std::size_t n = size;
  while (n >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
        tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
        tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tables[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

namespace {

/// One folding step: the 128 bits of `x`, advanced by the distance whose
/// two constants `k` holds, carry-less-multiplied half by half and added to
/// `next`, the block that distance ahead.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carry-less-multiply folding (Gopal et al., Intel 2009), with the
/// bit-reflected constants Intel published for the IEEE polynomial (the
/// ones zlib's and the Linux kernel's PCLMULQDQ CRC-32 use): k1/k2 fold a
/// 128-bit lane 512 bits ahead, k3/k4 128 bits ahead, k5 folds 96 bits to
/// 64, and the last pair is P(x) and its Barrett quotient mu. Folds every
/// whole 16-byte block of an input of at least 64 bytes, then hands the
/// remaining 0..15 bytes (and any shorter input) to the portable loop.
/// Compiled for that ISA by the target attribute alone; only ever called
/// after the CPUID check.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t update_pclmul(
    std::uint32_t crc, const std::uint8_t* data, std::size_t size) {
  if (size < 64) return update_portable(crc, data, size);
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const std::uint8_t* p = data;
  std::size_t n = size & ~std::size_t{15};
  const std::size_t tail = size - n;

  // Four lanes over the first 64 bytes, the register added into lane 0,
  // each lane then folded 512 bits ahead onto the next 64 bytes.
  __m128i lane[4];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) lane[i] = load16(p + 16 * i);
  lane[0] = _mm_xor_si128(lane[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      lane[i] = fold(lane[i], k1k2, load16(p + 16 * i));
    }
  }
  // The four lanes into one, then each remaining 16-byte block onto it.
  __m128i x = lane[0];
  for (int i = 1; i < 4; ++i) x = fold(x, k3k4, lane[i]);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k3k4, load16(p));
  // 128 bits to 64, then 64 to 32 by Barrett reduction.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  x = _mm_xor_si128(x, q);
  const auto folded = static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
  return update_portable(folded, p, tail);
}

bool cpu_has_pclmul() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
}

}  // namespace

Kernel hardware_kernel() {
  static const Kernel kernel = cpu_has_pclmul() ? &update_pclmul : nullptr;
  return kernel;
}

#else

Kernel hardware_kernel() { return nullptr; }

#endif

Kernel active_kernel() {
  static const Kernel kernel =
      hardware_kernel() != nullptr ? hardware_kernel() : &update_portable;
  return kernel;
}

}  // namespace crc32_detail

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_detail::active_kernel()(0xffffffffu, data.data(), data.size()) ^
         0xffffffffu;
}

}  // namespace dydroid::support
