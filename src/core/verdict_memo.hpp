// Per-binary verdict memo (docs/PIPELINE.md). The malware Detection and the
// PrivacyReport of an intercepted payload are pure functions of the
// detector and the payload's bytes, and a market corpus loads the same
// ad-SDK payloads again and again. PerBinaryStage owns one memo, so each
// pipeline judges every distinct payload once.
//
// The table hashes a payload with FNV-1a — a bucketing-only use of the
// weak hash (support/hash.hpp) — and confirms a hit by byte equality
// against the memo's own copy of the payload, so a crafted FNV-1a collision
// cannot alias a verdict. The copy is never a Blob view: a view would pin
// the whole APK buffer the payload was sliced from. Nothing is evicted, so
// the memo holds one copy of every distinct payload the pipeline has seen:
// 2,571 payloads (about 0.63 MB) for the 31,245 interceptions of the
// scale-1.0 corpus. A stream of all-distinct payloads has not been
// measured; there every lookup misses and the table grows with the stream.
//
// Thread-safe: one mutex guards the table and is held only inside find()
// and insert(); callers compute verdicts outside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/dcl_log.hpp"
#include "malware/droidnative.hpp"
#include "privacy/flowdroid.hpp"
#include "support/bytes.hpp"

namespace dydroid::core {

/// What PerBinaryStage concludes about one intercepted payload.
struct BinaryVerdict {
  std::optional<malware::Detection> malware;
  privacy::PrivacyReport privacy;  // DEX payloads only
};

/// Everything a verdict depends on: the detector (by identity), the code
/// kind (privacy analysis runs on DEX payloads only) and the bytes.
struct VerdictKey {
  const malware::DroidNative* detector = nullptr;
  CodeKind kind = CodeKind::Dex;
  std::span<const std::uint8_t> bytes;
};

class VerdictMemo {
 public:
  /// The verdict stored for `key`, or nullopt. Every call counts one
  /// `pipeline.verdict_hits` or `pipeline.verdict_misses`.
  [[nodiscard]] std::optional<BinaryVerdict> find(const VerdictKey& key) const;

  /// Store `verdict` under a copy of the key's bytes (counted in
  /// `pipeline.bytes_copied`). A verdict already stored for the key is
  /// kept: verdicts are pure, so a racing insert carries the same one.
  void insert(const VerdictKey& key, BinaryVerdict verdict);

 private:
  /// A stored key: the detector, the kind and the memo's own copy of the
  /// bytes. It converts to the VerdictKey viewing that copy, so one hash
  /// and one equality serve both lookups and stored entries.
  struct OwnedKey {
    const malware::DroidNative* detector = nullptr;
    CodeKind kind = CodeKind::Dex;
    support::Bytes bytes;
    // NOLINTNEXTLINE(google-explicit-constructor): the table's hash and
    // equality take both key forms through this view.
    operator VerdictKey() const { return {detector, kind, bytes}; }
  };
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const VerdictKey& key) const;
  };
  struct Equal {
    using is_transparent = void;
    bool operator()(const VerdictKey& a, const VerdictKey& b) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<OwnedKey, BinaryVerdict, Hash, Equal> verdicts_;
};

}  // namespace dydroid::core
