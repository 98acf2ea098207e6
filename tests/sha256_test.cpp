#include "core/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"

namespace cppflare::core {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string(1, c));
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg)));
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must all hash
  // without corruption; verify self-consistency of incremental paths.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 split;
    split.update(msg.substr(0, len / 2));
    split.update(msg.substr(len / 2));
    EXPECT_EQ(to_hex(split.finish()), to_hex(Sha256::hash(msg))) << len;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest mac = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key_s = "Jefe";
  const std::vector<std::uint8_t> key(key_s.begin(), key_s.end());
  const std::string msg = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDifferentMacs) {
  const std::vector<std::uint8_t> k1(32, 1), k2(32, 2);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  EXPECT_NE(to_hex(hmac_sha256(k1, msg)), to_hex(hmac_sha256(k2, msg)));
}

TEST(DigestCompare, EqualAndUnequal) {
  Digest a{}, b{};
  EXPECT_TRUE(digests_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digests_equal(a, b));
  b[31] = 0;
  b[0] = 1;
  EXPECT_FALSE(digests_equal(a, b));
}

TEST(ToHex, Formats) {
  Digest d{};
  d[0] = 0x0f;
  d[1] = 0xa0;
  const std::string hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 4), "0fa0");
}

// --- Both compressors, reached directly ------------------------------------
//
// `Sha256` runs whichever compressor the CPU selects, so on a SHA-NI host
// the tests above never touch the scalar code, and elsewhere they never
// touch SHA-NI. These cases drive each compressor by hand; the SHA-NI ones
// skip (loudly) on CPUs without the extension.

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// FIPS 180-4 §5.1.1 padding plus §5.3.3 initial state around `compress`.
std::string hash_with(CompressFn compress, const std::uint8_t* data,
                      std::size_t len) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = len / 64;
  compress(state, data, whole);
  std::vector<std::uint8_t> tail(data + whole * 64, data + len);
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
  for (int i = 7; i >= 0; --i) {
    tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  compress(state, tail.data(), tail.size() / 64);
  Digest d;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      d[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return to_hex(d);
}

std::string hash_with(CompressFn compress, const std::string& s) {
  return hash_with(compress, reinterpret_cast<const std::uint8_t*>(s.data()),
                   s.size());
}

/// Deterministic pseudo-random bytes (splitmix64), cheap enough for
/// BERT-size buffers under the sanitizers.
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t z = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) {
      z = (seed += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
    }
    out[i] = static_cast<std::uint8_t>(z >> (8 * (i % 8)));
  }
  return out;
}

/// Dispatched `Sha256` fed through `update()` calls split at random points.
std::string hash_split(const std::uint8_t* data, std::size_t len, Rng& rng) {
  Sha256 h;
  std::size_t pos = 0;
  while (pos < len) {
    // Mix tiny, block-sized and huge pieces so every buffering path runs.
    const std::int64_t cap = rng.bernoulli(0.5) ? 130 : 1 << 20;
    const std::size_t step = static_cast<std::size_t>(rng.uniform_int(
        0, std::min<std::int64_t>(cap, static_cast<std::int64_t>(len - pos))));
    h.update(data + pos, step);
    pos += step;
  }
  return to_hex(h.finish());
}

// 2,472,082 floats: one BERT-size update, the frame the channel hashes most.
constexpr std::size_t kBertBytes = 9888328;

class CompressorTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !detail::cpu_has_sha_ni()) {
      GTEST_SKIP() << "this CPU lacks SHA-NI (cpuid leaf 7 EBX bit 29): the "
                      "SHA-NI compressor is NOT exercised on this host";
    }
  }
  static CompressFn compress() {
    return GetParam() ? &detail::compress_shani : &detail::compress_scalar;
  }
};

TEST_P(CompressorTest, Fips180Vectors) {
  EXPECT_EQ(hash_with(compress(), ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hash_with(compress(), "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hash_with(compress(),
                      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hash_with(compress(), std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(CompressorTest, MatchesScalarAndSplitUpdatesOnRandomLengths) {
  Rng rng(180);
  const std::vector<std::uint8_t> data = random_bytes(4096, 7);
  for (int trial = 0; trial < 300; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    const std::string want = hash_with(&detail::compress_scalar, data.data(), len);
    EXPECT_EQ(hash_with(compress(), data.data(), len), want) << "len " << len;
    EXPECT_EQ(hash_split(data.data(), len, rng), want) << "len " << len;
  }
}

TEST_P(CompressorTest, MatchesScalarOnBertSizeBuffer) {
  Rng rng(4231);
  const std::vector<std::uint8_t> data = random_bytes(kBertBytes, 11);
  const std::string want =
      hash_with(&detail::compress_scalar, data.data(), data.size());
  EXPECT_EQ(hash_with(compress(), data.data(), data.size()), want);
  EXPECT_EQ(hash_split(data.data(), data.size(), rng), want);
}

INSTANTIATE_TEST_SUITE_P(Compressors, CompressorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ShaNi" : "Scalar";
                         });

// --- Streaming HMAC ---------------------------------------------------------

std::string hmac_streamed(const std::vector<std::uint8_t>& key,
                          const std::uint8_t* data, std::size_t len,
                          Rng& rng) {
  HmacSha256 mac(key);
  std::size_t pos = 0;
  while (pos < len) {
    const std::size_t step = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len - pos)));
    mac.update(data + pos, step);
    pos += step;
  }
  return to_hex(mac.finish());
}

TEST(HmacSha256Streaming, MatchesOneShotOverRandomKeysLengthsAndSplits) {
  Rng rng(2104);
  const std::vector<std::uint8_t> data = random_bytes(4096, 3);
  for (int trial = 0; trial < 200; ++trial) {
    // Key lengths straddle the 64-byte block: longer keys are hashed first.
    const std::vector<std::uint8_t> key = random_bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 131)), 100 + trial);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    EXPECT_EQ(hmac_streamed(key, data.data(), len, rng),
              to_hex(hmac_sha256(key, data.data(), len)))
        << "key " << key.size() << " len " << len;
  }
}

TEST(HmacSha256Streaming, MatchesOneShotOnBertSizeBuffer) {
  Rng rng(99);
  const std::vector<std::uint8_t> key(32, 0x5c);
  const std::vector<std::uint8_t> data = random_bytes(kBertBytes, 13);
  EXPECT_EQ(hmac_streamed(key, data.data(), data.size(), rng),
            to_hex(hmac_sha256(key, data)));
}

// Every RFC 4231 vector through the streaming class, fed a byte at a time.
TEST(HmacSha256Streaming, Rfc4231Vectors) {
  auto bytes = [](const std::string& s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };
  std::vector<std::uint8_t> key4;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key4.push_back(b);
  const struct {
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> data;
    std::string mac;  // case 5 is truncated to 128 bits by the RFC
  } cases[] = {
      {std::vector<std::uint8_t>(20, 0x0b), bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes("Jefe"), bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(20, 0xaa), std::vector<std::uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::vector<std::uint8_t>(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<std::uint8_t>(20, 0x0c), bytes("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {std::vector<std::uint8_t>(131, 0xaa),
       bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::vector<std::uint8_t>(131, 0xaa),
       bytes("This is a test using a larger than block-size key and a larger "
             "than block-size data. The key needs to be hashed before being "
             "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  int n = 0;
  for (const auto& c : cases) {
    ++n;
    HmacSha256 mac(c.key);
    for (std::uint8_t b : c.data) mac.update(&b, 1);
    EXPECT_EQ(to_hex(mac.finish()).substr(0, c.mac.size()), c.mac)
        << "RFC 4231 case " << n;
    EXPECT_EQ(to_hex(hmac_sha256(c.key, c.data)).substr(0, c.mac.size()), c.mac)
        << "RFC 4231 case " << n;
  }
}

}  // namespace
}  // namespace cppflare::core
