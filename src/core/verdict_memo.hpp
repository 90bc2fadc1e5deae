// Per-binary verdict memo (docs/PIPELINE.md). The malware Detection and the
// PrivacyReport of an intercepted payload are pure functions of the
// detector and the payload's bytes, and a market corpus loads the same
// ad-SDK payloads again and again. PerBinaryStage owns one memo, so each
// pipeline judges every distinct payload once.
//
// The table keys on the payload's SHA-256 (InterceptedBinary::digest, taken
// once where the bytes entered the report): content identity, so the memo
// keeps no copy of any payload (support/hash.hpp's strength classes).
// Nothing is evicted, so the memo holds one key and one verdict per
// distinct payload the pipeline has seen: 2,571 for the 31,245
// interceptions of the scale-1.0 corpus. A stream of all-distinct payloads
// has not been measured; there every lookup misses and the table grows by
// one entry per payload.
//
// Thread-safe: one mutex guards the table and is held only inside find()
// and insert(); callers compute verdicts outside it.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/dcl_log.hpp"
#include "malware/droidnative.hpp"
#include "privacy/flowdroid.hpp"
#include "support/hash.hpp"

namespace dydroid::core {

/// What PerBinaryStage concludes about one intercepted payload.
struct BinaryVerdict {
  std::optional<malware::Detection> malware;
  privacy::PrivacyReport privacy;  // DEX payloads only
};

/// Everything a verdict depends on: the detector (by identity), the code
/// kind (privacy analysis runs on DEX payloads only) and the payload's
/// content digest.
struct VerdictKey {
  const malware::DroidNative* detector = nullptr;
  CodeKind kind = CodeKind::Dex;
  support::Sha256Digest digest;

  friend bool operator==(const VerdictKey&, const VerdictKey&) = default;
};

class VerdictMemo {
 public:
  /// The verdict stored for `key`, or nullopt. Every call counts one
  /// `pipeline.verdict_hits` or `pipeline.verdict_misses`.
  [[nodiscard]] std::optional<BinaryVerdict> find(const VerdictKey& key) const;

  /// Store `verdict` under `key`. A verdict already stored for the key is
  /// kept: verdicts are pure, so a racing insert carries the same one.
  void insert(const VerdictKey& key, BinaryVerdict verdict);

 private:
  /// Buckets by the digest alone: it is already uniform, and one pipeline
  /// rarely pairs a digest with a second detector or kind.
  struct Hash {
    std::size_t operator()(const VerdictKey& key) const {
      return support::Sha256DigestHash{}(key.digest);
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<VerdictKey, BinaryVerdict, Hash> verdicts_;
};

}  // namespace dydroid::core
