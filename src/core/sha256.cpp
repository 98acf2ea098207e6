#include "core/sha256.h"

#include <algorithm>
#include <cstring>

// The only translation unit allowed ISA-specific code (cflint R15): every
// SHA-NI instruction sits behind the runtime dispatch in `compressor()`, so
// the build needs no -msha and the binary still runs on CPUs without it.
#if defined(__x86_64__) || defined(__i386__)
#define CF_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define CF_SHA256_X86 0
#endif

namespace cppflare::core {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
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

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// The process's compressor, resolved from cpuid on first use. Hashing
/// never re-checks the CPU: one static load per update/finish call.
CompressFn compressor() {
  static const CompressFn fn = detail::cpu_has_sha_ni()
                                   ? &detail::compress_shani
                                   : &detail::compress_scalar;
  return fn;
}

}  // namespace

namespace detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
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
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
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
}

#if CF_SHA256_X86

// SHA-NI keeps the working variables as two lanes-of-four, ABEF and CDGH;
// each sha256rnds2 does two rounds, so a 4-word message group costs two.
// The schedule rolls through w[4]: group g+4 is built from groups g..g+3
// with sha256msg1/msg2 right after group g is consumed.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);  // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1b);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);  // CDGH

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i msg = _mm_add_epi32(
          w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g < 12) {
        const __m128i w3 = w[(g + 3) & 3];
        __m128i next = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(w3, w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(next, w3);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1b);  // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);  // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xf0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);  // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ssse3 && sse41 && (b & (1u << 29)) != 0;
}

#else

// Unreachable through the dispatch (cpu_has_sha_ni() is false here); kept
// so the declaration links on every architecture.
void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t nblocks) {
  compress_scalar(state, data, nblocks);
}

bool cpu_has_sha_ni() { return false; }

#endif

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;  // `data` may be null (an empty vector's data())
  total_bytes_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    compressor()(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    compressor()(state_.data(), data, blocks);
    data += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) std::memcpy(buffer_.data(), data, len);
  buffered_ = len;
}

void Sha256::update(const std::string& s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Sha256::update(const std::vector<std::uint8_t>& v) {
  update(v.data(), v.size());
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + buffered_, buffer_.end(), 0);
    compressor()(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + buffered_, buffer_.begin() + 56, 0);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  compressor()(state_.data(), buffer_.data(), 1);
  buffered_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest Sha256::hash(const std::string& s) {
  return hash(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

HmacSha256::HmacSha256(const std::vector<std::uint8_t>& key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest d = Sha256::hash(key.data(), key.size());
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, kBlock> pad{};
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(pad.data(), kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(pad.data(), kBlock);
}

Digest HmacSha256::finish() {
  const Digest inner = inner_.finish();
  outer_.update(inner.data(), inner.size());
  return outer_.finish();
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* message, std::size_t len) {
  HmacSha256 mac(key);
  mac.update(message, len);
  return mac.finish();
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& message) {
  return hmac_sha256(key, message.data(), message.size());
}

std::string to_hex(const Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (std::uint8_t b : digest) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

bool digests_equal(const Digest& a, const Digest& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace cppflare::core
