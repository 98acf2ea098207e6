// Self-contained SHA-256 and HMAC-SHA256.
//
// NVFlare provisions participants with certificates and authenticates
// traffic over TLS. Our reproduction keeps the same *shape* — every frame a
// client sends carries a MAC keyed by a per-participant secret issued at
// provisioning time — using HMAC-SHA256 implemented here from the FIPS
// 180-4 specification (no external crypto dependency is available offline).
//
// The block compressor is chosen once per process: the x86 SHA extensions
// (SHA-NI) when cpuid reports them, the portable scalar code otherwise. Both
// produce identical digests; DESIGN.md §10 has the details.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cppflare::core {

using Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// Folds `nblocks` consecutive 64-byte blocks at `data` into `state`
/// (the eight working words of FIPS 180-4 §6.2). Portable; always built.
void compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t nblocks);

/// Same contract on the SHA-NI instructions. Only valid to call when
/// `cpu_has_sha_ni()` is true.
void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t nblocks);

/// True when this CPU executes SHA-NI (cpuid leaf 7, EBX bit 29, plus the
/// SSSE3/SSE4.1 shuffles the compressor uses). Always false off x86.
bool cpu_has_sha_ni();

}  // namespace detail

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::string& s);
  void update(const std::vector<std::uint8_t>& v);

  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(const std::uint8_t* data, std::size_t len);
  static Digest hash(const std::string& s);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Streaming HMAC-SHA256 per RFC 2104. The constructor absorbs the padded
/// key into the inner and outer hashes, so a message of any size streams
/// through `update` without being gathered into one buffer first.
class HmacSha256 {
 public:
  explicit HmacSha256(const std::vector<std::uint8_t>& key);

  void update(const std::uint8_t* data, std::size_t len) {
    inner_.update(data, len);
  }

  /// Finalizes and returns the MAC. The object must not be reused after.
  Digest finish();

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// One-shot HMAC-SHA256.
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* message, std::size_t len);
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& message);

/// Lowercase hex encoding of a digest.
std::string to_hex(const Digest& digest);

/// Constant-time digest comparison (avoids MAC timing side channels).
bool digests_equal(const Digest& a, const Digest& b);

}  // namespace cppflare::core
