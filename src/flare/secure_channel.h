// Authenticated message envelopes.
//
// Every protocol frame is wrapped in an envelope carrying the sender name, a
// strictly increasing sequence number, the payload, and an HMAC-SHA256 over
// all of it keyed by the sender's provisioned secret. The receiver verifies
// the MAC (constant time) and enforces sequence monotonicity per sender,
// which defeats tampering and replay on an untrusted transport — the role
// TLS plays in a production NVFlare deployment.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "flare/provision.h"

namespace cppflare::flare {

struct Envelope {
  std::string sender;
  /// Job binding (multi-job coordinator, DESIGN.md §16): the job this frame
  /// belongs to, covered by the MAC so cross-job replays fail closed. Empty
  /// means "unbound" — accepted by a single-job endpoint, rejected by the
  /// job router whenever more than one job is live.
  std::string job_id;
  std::uint64_t sequence = 0;
  std::vector<std::uint8_t> payload;
};

/// Wraps `payload` in a MAC'd envelope as `sender` with `sequence`, bound
/// to `job_id` (empty = unbound, the single-job wire shape).
std::vector<std::uint8_t> seal(const std::string& sender,
                               const std::vector<std::uint8_t>& secret,
                               std::uint64_t sequence,
                               const std::vector<std::uint8_t>& payload,
                               const std::string& job_id = {});

/// Parses and verifies an envelope against `secret`. Throws ProtocolError on
/// malformed input or MAC mismatch. The MAC is checked over `sealed` in
/// place; the payload is copied out only once it verified. Does NOT check
/// the sequence; callers with per-sender state use `SequenceTracker`.
Envelope open(const std::vector<std::uint8_t>& sealed,
              const std::vector<std::uint8_t>& secret);

/// Parses only the sender name (needed to look up the right secret before
/// verification).
std::string peek_sender(const std::vector<std::uint8_t>& sealed);

/// Parses only the job binding — the router's routing key. Unverified until
/// `open` succeeds; a forged job id at worst routes the frame to a job whose
/// MAC check then rejects it.
std::string peek_job(const std::vector<std::uint8_t>& sealed);

/// Enforces strictly increasing sequence numbers per sender. Thread-safe.
class SequenceTracker {
 public:
  /// Throws ProtocolError if `sequence` is not strictly greater than the
  /// last accepted value for `sender`.
  void check_and_advance(const std::string& sender, std::uint64_t sequence);

 private:
  core::Mutex mu_;
  std::map<std::string, std::uint64_t> last_ CF_GUARDED_BY(mu_);
};

/// Client-side sequence source.
class SequenceSource {
 public:
  std::uint64_t next() { return ++value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Per-sender outbound sequence counters, shareable across sealers.
/// Thread-safe. A multi-job coordinator seals as "server" from the job
/// router *and* from every hosted FederatedServer; handing them one pool
/// keeps the sequences a given client observes strictly increasing no
/// matter which component answered (SequenceTracker on the client side
/// rejects anything else as a replay).
class SequencePool {
 public:
  std::uint64_t next(const std::string& sender) {
    core::MutexLock lock(mu_);
    return ++last_[sender];
  }

 private:
  core::Mutex mu_;
  std::map<std::string, std::uint64_t> last_ CF_GUARDED_BY(mu_);
};

}  // namespace cppflare::flare
