// Content-addressed result cache (docs/CACHE.md).
//
// The paper's corpus (Section V) is dominated by repeated content: the
// same APK resubmitted across markets, repacked variants sharing payloads,
// and re-runs of the measurement after a driver upgrade. The cache makes
// re-analysis of identical work free: it maps
//
//   (SHA-256 of the job's inputs, SHA-256 config fingerprint, app seed)
//     -> outcome record (the record the resume journal holds)
//
// so a corpus run can skip analyze() for any app whose exact bytes and
// surroundings (hosted payloads, companion apps) were already analyzed
// under the exact same pipeline configuration and seed.
// Identity bottoms out in SHA-256 — never FNV-1a (see support/hash.hpp's
// strength classes): a craftable 64-bit collision must land in distinct
// cache entries, not serve one app's results for another's bytes.
//
// On-disk layout: DIR/results.dyc is an outcome journal (docs/CHECKPOINT.md)
// whose metadata record names the fingerprint; each outcome record names
// the job and seed it is keyed on, so a finished journal primes a cache.
// Unlike a resume the cache is *advisory*: a torn tail, an unreadable
// record or a stale fingerprint never aborts a run — damaged entries are
// skipped (loudly, to stderr) and the apps recompute. File order doubles
// as the LRU order (front = least recent); eviction drops in-memory
// entries once max_entries/max_bytes are exceeded and seal() compacts the
// file to the survivors in LRU order, so recency survives across runs.
//
// Memory: open reads the store with one bulk read, and every loaded entry
// is a slice of that one buffer (support::Blob), so the buffer lives until
// the last loaded entry is gone — an evicted or invalidated entry frees
// nothing before the cache closes.
//
// Fault sites (docs/FAULTS.md): cache.read fails a lookup (treated as a
// miss), cache.write fails an insert (the entry is dropped and the frame
// left genuinely torn). Both degrade, never abort — cached and uncached
// runs stay byte-identical under injection.
//
// Thread-safety: all public methods are internally synchronized; one
// ResultCache serves every corpus worker.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "driver/corpus_runner.hpp"
#include "support/blob.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"

namespace dydroid::core {
class DyDroid;
}

namespace dydroid::driver {

/// The store file inside the cache directory.
inline constexpr std::string_view kCacheFileName = "results.dyc";

/// Full identity of one cached analysis. Every component is
/// content-addressed: apk is job_digest() — the exact package bytes plus
/// the exact scenario the app runs in — config the fingerprint of the
/// exact pipeline semantics, seed the exact fuzzing stream. Equal keys
/// replay byte-identical reports.
struct CacheKey {
  support::Sha256Digest apk;
  support::Sha256Digest config;
  std::uint64_t seed = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    const support::Sha256DigestHash h;
    return support::hash_combine(
        support::hash_combine(h(k.apk), h(k.config)), k.seed);
  }
};

/// Capacity bounds. 0 means unlimited. Bytes count outcome record
/// payloads (the dominant cost), not framing.
struct CacheConfig {
  std::size_t max_entries = 0;
  std::uint64_t max_bytes = 0;
  /// fsync(2) after every insert (default off, like the journal).
  bool fsync_each_insert = false;
};

/// Counters for diagnostics and the survey summary. `loaded`/`invalidated`/
/// `skipped` describe open-time recovery; the rest accumulate per call.
struct CacheStats {
  std::size_t loaded = 0;        // intact, current-config entries at open
  std::size_t invalidated = 0;   // records under a stale metadata record
  std::size_t skipped = 0;       // unreadable records dropped
  bool torn_tail = false;        // open recovered a damaged tail
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;     // entries dropped by capacity bounds
  std::size_t read_faults = 0;   // cache.read fired (served as misses)
  std::size_t write_failures = 0;  // cache.write fired / append error
};

/// The on-disk, capacity-bounded result store. See the header comment for
/// the format and recovery rules.
class ResultCache {
 public:
  /// Open (creating the directory and store file if absent) the cache at
  /// `dir`. A store whose metadata record is missing or names another
  /// codec version or fingerprint than `expected_config` is invalidated —
  /// counted with a stderr warning, so a config change is loud, never a
  /// silent corpus-wide miss — and re-stamped. Unreadable and sandbox-fated
  /// records are skipped; a damaged tail is recovered journal-style. Fails
  /// on I/O errors and on a file that is no journal (left untouched, the
  /// message says to delete it) — never on damaged contents.
  static support::Result<ResultCache> open(
      const std::string& dir, const support::Sha256Digest& expected_config,
      CacheConfig config = {});

  ResultCache(ResultCache&&) noexcept = default;
  ResultCache& operator=(ResultCache&&) noexcept = default;
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;
  ~ResultCache();

  /// Look up one key. A hit refreshes recency and returns the decoded
  /// outcome (completed=true, replayed/cache flags cleared — the caller
  /// stamps provenance). A cache.read fault or an entry that no longer
  /// decodes degrades to a miss (the bad entry is dropped). The lock is
  /// held only to find the entry and copy its Blob (a refcount bump);
  /// decoding runs unlocked.
  [[nodiscard]] std::optional<AppOutcome> lookup(const CacheKey& key);

  /// Insert (or overwrite) one finished outcome. Encodes it unlocked, then
  /// appends the record to the store, admits it to the index and evicts
  /// LRU entries past the capacity bounds; a sandbox-fated outcome is not
  /// stored. The next open keys the record on the outcome's job and seed,
  /// so `key` must name them. A cache.write fault or append error drops
  /// the entry (counted in write_failures) without failing the run.
  void insert(const CacheKey& key, const AppOutcome& outcome);

  /// Flush and close the store. If entries were evicted, overwritten or
  /// damaged records dropped, the file is first compacted: rewritten to
  /// the surviving entries in LRU order (temp file + atomic rename), so
  /// the next open sees exactly the index state and recency this run
  /// ended with. Idempotent; also performed by the destructor.
  support::Status seal();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t payload_bytes() const;
  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const std::string& store_path() const { return store_path_; }

  /// Keys in recency order, least recent first (the compaction order).
  /// Test hook for the LRU-eviction suite.
  [[nodiscard]] std::vector<CacheKey> lru_order() const;

 private:
  struct Entry {
    /// The outcome record: a slice of the store buffer for an entry loaded
    /// at open, its own buffer for one inserted since.
    support::Blob payload;
    std::list<CacheKey>::iterator lru_it;
  };

  ResultCache() = default;

  void evict_past_bounds_locked();
  void touch_locked(Entry& entry);
  /// Turn a lookup's counted hit into a miss and drop the entry if it
  /// still holds `payload`, the Blob that failed to decode.
  void drop_undecodable(const CacheKey& key, const support::Blob& payload);

  // Behind unique_ptr so the cache stays movable (std::mutex is not).
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::string store_path_;
  CacheConfig config_;
  support::Bytes meta_record_;  // what the store leads with
  std::optional<support::JournalWriter> writer_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> index_;
  std::list<CacheKey> lru_;  // front = least recently used
  std::uint64_t payload_bytes_ = 0;
  /// Disk no longer mirrors the index (eviction, overwrite, damage):
  /// seal() must compact.
  bool dirty_ = false;
  CacheStats stats_;
};

/// SHA-256 fingerprint of everything that changes analysis semantics:
/// stage list, engine/device/runtime knobs, the detector's threshold and
/// training digest, fault plan (minus the driver-level journal.append,
/// driver.kill, cache.read and cache.write sites, which never change a
/// report), retry/timeout policy and the outcome codec version. It keys the
/// result cache and pins every journal's metadata record. Two pipelines
/// with equal fingerprints produce byte-identical reports for equal
/// (job_digest, seed) — the invariant the cache's correctness rests on.
[[nodiscard]] support::Sha256Digest config_fingerprint(
    const core::DyDroid& pipeline);

/// The content address of one job's inputs (CacheKey::apk, and the job an
/// outcome record names): SHA-256 over one prefix-free encoding of every
/// job — the APK's length (u64), the scenario's os::Scenario::encode(),
/// then the APK bytes. No APK's bytes can pose as another job's scenario.
[[nodiscard]] support::Sha256Digest job_digest(const AppJob& job);

}  // namespace dydroid::driver
