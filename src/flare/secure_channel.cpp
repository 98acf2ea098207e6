#include "flare/secure_channel.h"

#include <algorithm>

#include "core/bytes.h"
#include "core/error.h"
#include "core/sha256.h"

namespace cppflare::flare {

namespace {
constexpr std::uint32_t kEnvelopeMagic = 0x46454e56;  // "FENV"
constexpr std::size_t kMagicSize = 4;
constexpr std::size_t kMacSize = core::Digest().size();

// The MAC covers everything between the magic and the MAC itself: sender,
// job id, sequence, payload length and payload. Those bytes lie contiguous
// in the frame on both ends, so the HMAC streams over the frame in place
// and the wire stays byte-for-byte the v1 envelope.
core::Digest frame_mac(const std::vector<std::uint8_t>& secret,
                       const std::uint8_t* frame, std::size_t mac_at) {
  return core::hmac_sha256(secret, frame + kMagicSize, mac_at - kMagicSize);
}

}  // namespace

std::vector<std::uint8_t> seal(const std::string& sender,
                               const std::vector<std::uint8_t>& secret,
                               std::uint64_t sequence,
                               const std::vector<std::uint8_t>& payload,
                               const std::string& job_id) {
  core::ByteWriter w;
  // magic, two u32-prefixed strings, u64 sequence, u64 length, payload, MAC.
  w.reserve(kMagicSize + 4 + sender.size() + 4 + job_id.size() + 8 + 8 +
            payload.size() + kMacSize);
  w.write_u32(kEnvelopeMagic);
  w.write_string(sender);
  w.write_string(job_id);
  w.write_u64(sequence);
  w.write_u64(payload.size());
  w.write_raw(payload.data(), payload.size());
  const core::Digest mac = frame_mac(secret, w.bytes().data(), w.size());
  w.write_raw(mac.data(), mac.size());
  return w.take();
}

Envelope open(const std::vector<std::uint8_t>& sealed,
              const std::vector<std::uint8_t>& secret) {
  core::ByteReader r(sealed);
  if (r.read_u32() != kEnvelopeMagic) throw ProtocolError("envelope: bad magic");
  Envelope env;
  env.sender = r.read_string();
  env.job_id = r.read_string();
  env.sequence = r.read_u64();
  const std::uint64_t n = r.read_u64();
  // Written as a subtraction: `n + kMacSize` wraps for a hostile length near
  // 2^64 and would pass the check.
  if (r.remaining() < kMacSize || r.remaining() - kMacSize < n) {
    throw ProtocolError("envelope: truncated");
  }
  if (r.remaining() - kMacSize != n) {
    throw ProtocolError("envelope: trailing bytes");
  }
  // Verify over the frame in place; only an authentic payload is copied
  // out, so a forged frame never costs a payload-sized allocation.
  const std::size_t payload_at = r.position();
  const std::size_t mac_at = payload_at + static_cast<std::size_t>(n);
  core::Digest mac{};
  std::copy_n(sealed.begin() + mac_at, kMacSize, mac.begin());
  if (!core::digests_equal(mac, frame_mac(secret, sealed.data(), mac_at))) {
    throw ProtocolError("envelope: MAC verification failed for sender '" +
                        env.sender + "'");
  }
  env.payload.assign(sealed.begin() + payload_at, sealed.begin() + mac_at);
  return env;
}

std::string peek_sender(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  if (r.read_u32() != kEnvelopeMagic) throw ProtocolError("envelope: bad magic");
  return r.read_string();
}

std::string peek_job(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  if (r.read_u32() != kEnvelopeMagic) throw ProtocolError("envelope: bad magic");
  (void)r.read_string();  // sender
  return r.read_string();
}

void SequenceTracker::check_and_advance(const std::string& sender,
                                        std::uint64_t sequence) {
  core::MutexLock lock(mu_);
  auto it = last_.try_emplace(sender, 0).first;
  // Fresh senders start at 0, so any valid sequence is >= 1.
  if (sequence <= it->second) {
    throw ProtocolError("envelope: replayed or stale sequence from '" + sender +
                        "'");
  }
  it->second = sequence;
}

}  // namespace cppflare::flare
