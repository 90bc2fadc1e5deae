// Unit tests for support: byte IO, hashing, RNG determinism, strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "support/blob.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/hash_kernels.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace dydroid::support {
namespace {

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, RoundTripStringsAndBlobs) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.blob(to_bytes("payload"));
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(to_string(r.blob()), "payload");
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  (void)r.u8();
  (void)r.u8();
  EXPECT_THROW((void)r.u8(), ParseError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.u32(100);  // declares 100 bytes but provides none
  ByteReader r(w.data());
  EXPECT_THROW((void)r.str(), ParseError);
}

// The ParseError message of `read`, or "no error" when it does not throw.
template <typename Read>
std::string truncation_message(Read read) {
  try {
    read();
  } catch (const ParseError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Bytes, TruncatedReadsReportTheByteWiseMessage) {
  // A short fixed-width read fails as if it read byte by byte: on the
  // byte after the last one, with the position left at the end.
  const auto check_fixed = [](std::size_t width, auto read) {
    for (std::size_t before = 0; before <= 3; ++before) {
      for (std::size_t left = 0; left < width; ++left) {
        const Bytes input(before + left, 0x5a);
        ByteReader r(input);
        (void)r.view(before);
        const auto size = std::to_string(input.size());
        EXPECT_EQ(truncation_message([&] { (void)read(r); }),
                  "truncated input: need 1 bytes at offset " + size + " of " +
                      size)
            << "width " << width << ", " << before << " read, " << left
            << " left";
        EXPECT_EQ(r.position(), input.size());
        EXPECT_TRUE(r.at_end());
      }
    }
  };
  check_fixed(1, [](ByteReader& r) { return r.u8(); });
  check_fixed(2, [](ByteReader& r) { return r.u16(); });
  check_fixed(4, [](ByteReader& r) { return r.u32(); });
  check_fixed(8, [](ByteReader& r) { return r.u64(); });
  check_fixed(8, [](ByteReader& r) { return r.i64(); });

  // A length that lies fails on the whole field, at the field's offset,
  // and leaves the position there.
  ByteWriter w;
  w.u32(100);
  w.raw(to_bytes("abc"));
  const std::string lie = "truncated input: need 100 bytes at offset 4 of 7";
  {
    ByteReader r(w.data());
    EXPECT_EQ(truncation_message([&] { (void)r.str(); }), lie);
    EXPECT_EQ(r.position(), 4u);
  }
  {
    ByteReader r(w.data());
    EXPECT_EQ(truncation_message([&] { (void)r.blob(); }), lie);
    EXPECT_EQ(r.position(), 4u);
  }
  {
    ByteReader r(w.data());
    (void)r.u32();
    EXPECT_EQ(truncation_message([&] { (void)r.raw(100); }), lie);
    EXPECT_EQ(truncation_message([&] { (void)r.view(100); }), lie);
    EXPECT_EQ(r.position(), 4u);
    EXPECT_EQ(truncation_message([&] { (void)r.view(4); }),
              "truncated input: need 4 bytes at offset 4 of 7");
    EXPECT_EQ(as_chars(r.view(3)), "abc");
    EXPECT_TRUE(r.view(0).empty());
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Hash, Fnv1aKnownProperties) {
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("dydroid"), fnv1a64("dydroid"));
  EXPECT_NE(fnv1a64(""), 0u);
}

TEST(Hash, Crc32MatchesIeeeVector) {
  // Standard check value for "123456789".
  const auto data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// NIST FIPS 180-4 test vectors (the one-block, two-block and empty-message
// cases from the SHA-256 examples plus the million-'a' stress vector).
TEST(Hash, Sha256NistVectors) {
  EXPECT_EQ(
      sha256("").hex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256("abc").hex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const std::string million(1000000, 'a');
  EXPECT_EQ(
      sha256(million).hex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The digest must not depend on update() chunking: byte-at-a-time, odd
// block-straddling splits and one-shot all agree.
TEST(Hash, Sha256IncrementalChunkingEquivalence) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, 256 bits at a time, "
      "until the corpus of 58,739 apps is deduplicated by content.";
  const auto oneshot = sha256(message);
  Sha256 bytewise;
  for (char c : message) bytewise.update(std::string_view(&c, 1));
  EXPECT_EQ(bytewise.digest(), oneshot);
  for (std::size_t split : {1u, 55u, 56u, 63u, 64u, 65u, 100u}) {
    Sha256 h;
    h.update(std::string_view(message).substr(0, split));
    h.update(std::string_view(message).substr(split));
    EXPECT_EQ(h.digest(), oneshot) << "split at " << split;
  }
}

/// FIPS 180-4 padding done here, independently of Sha256::digest(), then
/// `kernel` over every block from the initial state; returns the digest.
Sha256Digest sha256_with_kernel(sha256_detail::Kernel kernel,
                                std::span<const std::uint8_t> message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = message.size() * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  kernel(state, padded.data(), padded.size() / 64);
  Sha256Digest out;
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out.bytes[4 * i + b] =
          static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

// The SHA-extensions kernel against the portable FIPS 180-4 loop: every
// length from 0 to 1,100 bytes of random data (every padding case, one to
// eighteen blocks per kernel call), and Sha256 under random update()
// chunkings, which runs whichever kernel this CPU selected.
TEST(Hash, Sha256HardwareKernelMatchesPortable) {
  const sha256_detail::Kernel hardware = sha256_detail::hardware_kernel();
  if (hardware == nullptr) {
    GTEST_SKIP() << "CPUID reports no SHA extensions (or no SSSE3/SSE4.1); "
                    "only the portable kernel runs here";
  }
  EXPECT_EQ(sha256_detail::active_kernel(), hardware);
  Rng rng(0x5a256);
  Bytes data(1100);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> message(data.data(), len);
    const Sha256Digest reference =
        sha256_with_kernel(&sha256_detail::compress_portable, message);
    ASSERT_EQ(sha256_with_kernel(hardware, message), reference)
        << "length " << len;
    ASSERT_EQ(sha256(message), reference) << "length " << len;
    Sha256 chunked;
    for (std::size_t pos = 0; pos < len;) {
      const std::size_t take = std::min<std::size_t>(
          len - pos, static_cast<std::size_t>(rng.below(200)));
      chunked.update(message.subspan(pos, take));
      pos += take;
    }
    ASSERT_EQ(chunked.digest(), reference) << "chunked, length " << len;
  }
}

// The PCLMULQDQ CRC-32 kernel against the slicing-by-8 loop: every length
// from 0 to 2,048 bytes at buffer offsets 0, 1 and 7 (below the 64-byte
// folding threshold, one to 128 whole blocks, every tail length and
// alignment), and every frame of a generated journal.
TEST(Hash, Crc32HardwareKernelMatchesPortable) {
  const crc32_detail::Kernel hardware = crc32_detail::hardware_kernel();
  if (hardware == nullptr) {
    GTEST_SKIP() << "CPUID reports no PCLMULQDQ (or no SSE4.1); only the "
                    "portable kernel runs here";
  }
  EXPECT_EQ(crc32_detail::active_kernel(), hardware);
  const auto portable = [](std::span<const std::uint8_t> bytes) {
    return crc32_detail::update_portable(0xffffffffu, bytes.data(),
                                         bytes.size()) ^
           0xffffffffu;
  };
  Rng rng(0xc7c32);
  Bytes data(2048 + 7);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next());
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    for (std::size_t len = 0; len + offset <= data.size() && len <= 2048;
         ++len) {
      const std::span<const std::uint8_t> message(data.data() + offset, len);
      const std::uint32_t reference = portable(message);
      ASSERT_EQ(hardware(0xffffffffu, message.data(), len) ^ 0xffffffffu,
                reference)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(crc32(message), reference)
          << "offset " << offset << " length " << len;
    }
  }

  ByteWriter journal;
  journal.raw(kJournalMagic);
  for (int i = 0; i < 300; ++i) {
    Bytes payload(static_cast<std::size_t>(rng.below(3000)));
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
    encode_frame(journal, payload);
  }
  const auto parsed = parse_journal(Blob::take(journal.take()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().records.size(), 300u);
  for (const Blob& record : parsed.value().records) {
    ASSERT_EQ(hardware(0xffffffffu, record.data(), record.size()) ^
                  0xffffffffu,
              portable(record))
        << "frame of " << record.size() << " bytes";
  }
}

TEST(Hash, Sha256DigestHelpers) {
  const auto d = sha256("abc");
  EXPECT_EQ(d.hex().substr(0, 16), "ba7816bf8f01cfea");
  EXPECT_EQ(Sha256DigestHash{}(d), Sha256DigestHash{}(sha256("abc")));
  EXPECT_NE(sha256("abc"), sha256("abd"));
  EXPECT_LT(d, sha256(""));  // ba... orders before e3... bytewise
}

// The weak-fingerprint regression (ISSUE 7): 64-bit FNV-1a collisions are
// craftable, so identity decisions must route through SHA-256. These two
// 13-byte inputs were crafted by a birthday search over the FNV state
// space: they collide under fnv1a64 yet are different content.
TEST(Hash, CraftedFnvCollisionDistinctUnderSha256) {
  const std::string a = std::string("adhkfmajpgmp") + '\x61';
  const std::string b = std::string("dknbajjdhieb") + '\x17';
  ASSERT_NE(a, b);
  EXPECT_EQ(fnv1a64(a), fnv1a64(b));           // FNV conflates them...
  EXPECT_EQ(fnv1a64(a), 0x163793a619fe055cull);
  EXPECT_NE(sha256(a), sha256(b));             // ...SHA-256 does not.
  // Second independent pair, same property.
  const std::string c = std::string("olbnmgppjhkk") + '\x61';
  const std::string d = std::string("amllapgdikhd") + '\x92';
  EXPECT_EQ(fnv1a64(c), fnv1a64(d));
  EXPECT_NE(sha256(c), sha256(d));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(3, 6);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a::b:", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, "."), "x.y.z");
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, PackageOf) {
  EXPECT_EQ(package_of("com.example.app.Main"), "com.example.app");
  EXPECT_EQ(package_of("Main"), "");
}

TEST(Strings, PackagePrefixBoundaries) {
  EXPECT_TRUE(package_has_prefix("com.foo.bar", "com.foo"));
  EXPECT_TRUE(package_has_prefix("com.foo", "com.foo"));
  EXPECT_FALSE(package_has_prefix("com.foobar", "com.foo"));
  EXPECT_FALSE(package_has_prefix("com.foo", ""));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
}

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  auto bad = Result<int>::failure("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "boom");
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(Status, DefaultOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  auto f = Status::failure("nope");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error(), "nope");
}

}  // namespace
}  // namespace dydroid::support
