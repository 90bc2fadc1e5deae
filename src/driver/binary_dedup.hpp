// Corpus-wide unique-binary dedup store (docs/CACHE.md).
//
// The paper's key scaling observation (Section V): apps vastly outnumber
// the binaries they load — thousands of apps embed the same ad-SDK dex or
// the same native helper, so deduplicating intercepted payloads by content
// hash collapses the downstream analysis surface from "binaries seen" to
// "unique binaries". This store reproduces that measurement over a corpus
// run: every intercepted payload is keyed by its SHA-256 (content identity
// — see support/hash.hpp's strength classes; FNV-1a is craftably
// collidable and must never decide dedup identity) and counted once.
//
// Optionally (when the runner has a cache directory) unique payloads are
// persisted content-addressed under DIR/blobs/<hex-digest>.bin — a binary
// already on disk is never written again, across runs. The directory is
// listed once, when the store first needs it, not stat'ed per payload.
//
// The SHA-256 of each payload is the report's own (InterceptedBinary::
// digest, taken where the bytes entered it: the interceptor's snapshot or
// the report decoder); the store only folds the digests.
//
// Thread-safety: none. The runner absorbs the reports in corpus order after
// the worker pool joins, which also makes every stat deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/pipeline.hpp"
#include "support/hash.hpp"

namespace dydroid::driver {

/// Apps-vs-unique-binaries tallies for the survey report.
struct BinaryDedupStats {
  std::size_t total = 0;          // intercepted binaries across the corpus
  std::size_t unique = 0;         // distinct payload digests
  std::size_t unique_dex = 0;
  std::size_t unique_native = 0;
  std::uint64_t total_bytes = 0;  // payload bytes as intercepted
  std::uint64_t unique_bytes = 0; // payload bytes after dedup
  std::size_t max_reuse = 0;      // interceptions of the hottest payload
  std::size_t blobs_written = 0;  // payloads persisted by this run

  /// Bytes the dedup avoided storing/re-analyzing.
  [[nodiscard]] std::uint64_t duplicate_bytes() const {
    return total_bytes - unique_bytes;
  }
};

/// Content-addressed table of every intercepted binary in a corpus run.
class BinaryDedupStore {
 public:
  BinaryDedupStore() = default;
  /// Persist unique payloads under `blob_dir` (created once, on the first
  /// unique payload).
  explicit BinaryDedupStore(std::string blob_dir)
      : blob_dir_(std::move(blob_dir)) {}

  /// Absorb every intercepted binary of one finished app's report.
  void absorb(std::span<const core::BinaryReport> binaries);

  [[nodiscard]] const BinaryDedupStats& stats() const { return stats_; }

 private:
  /// Create and list the blob directory on first use; false once it
  /// cannot be made (persistence then stays off for this store) or without
  /// one.
  bool blob_dir_ready();

  std::string blob_dir_;
  bool blob_dir_made_ = false;
  /// File names in blob_dir_ when it was first listed.
  std::unordered_set<std::string> stored_;
  std::unordered_map<support::Sha256Digest, std::size_t,
                     support::Sha256DigestHash>
      counts_;
  BinaryDedupStats stats_;
};

}  // namespace dydroid::driver
