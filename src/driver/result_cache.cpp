#include "driver/result_cache.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <utility>

#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/shard_merge.hpp"
#include "malware/droidnative.hpp"
#include "support/fault.hpp"
#include "support/io.hpp"

namespace dydroid::driver {

support::Result<ResultCache> ResultCache::open(
    const std::string& dir, const support::Sha256Digest& expected_config,
    CacheConfig config) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return support::Result<ResultCache>::failure(
        "cache: cannot create directory " + dir + ": " + ec.message());
  }
  ResultCache cache;
  cache.config_ = config;
  support::ShardMeta meta;  // shard 0/1, seed base 0, corpus size 0
  meta.outcome_codec_version = kOutcomeCodecVersion;
  meta.config_fingerprint = expected_config.bytes;
  cache.meta_record_ = support::encode_shard_meta(meta);
  cache.store_path_ = (std::filesystem::path(dir) / kCacheFileName).string();

  // Load the existing store, journal-style: walk intact frames, stop at
  // the first damaged one, chop the damaged tail so appends land after the
  // last intact record. Damaged *contents* never fail the open — the cache
  // is advisory — but a file that is no journal (a store from an older
  // build, some other file squatting on the path) is a loud failure.
  bool current = false;  // the store's metadata record is this run's
  if (std::filesystem::exists(cache.store_path_, ec)) {
    auto read = read_outcome_records(cache.store_path_);
    if (!read.ok()) {
      return support::Result<ResultCache>::failure(
          "cache: " + read.error() +
          "; delete the store to start an empty one");
    }
    OutcomeRecords& store = read.value();
    if (store.bytes_discarded > 0) {
      cache.stats_.torn_tail = true;
      std::fprintf(stderr,
                   "cache: recovered torn tail in %s (%zu bytes discarded)\n",
                   cache.store_path_.c_str(), store.bytes_discarded);
      const auto truncated =
          support::truncate_journal(cache.store_path_, store.bytes_recovered);
      if (!truncated.ok()) {
        return support::Result<ResultCache>::failure(truncated.error());
      }
    }
    current = store.meta.has_value() &&
              store.meta->outcome_codec_version == kOutcomeCodecVersion &&
              store.meta->config_fingerprint == meta.config_fingerprint;
    if (!current) {
      cache.stats_.invalidated = store.records.size();
      store.records.clear();
    }
    // Room for the loaded entries and as many inserts again: growing the
    // index rehashes every entry, and an insert would do that under the
    // lock, stalling every worker's lookups.
    cache.index_.reserve(2 * store.records.size());
    for (OutcomeRecord& record : store.records) {
      if (!record.readable || record.sandbox_fate != SandboxFate::kNone) {
        // CRC-intact but unreadable (foreign codec version, truncated
        // fields): skip and recompute — never crash. A journal's sandbox
        // kills are skipped too: the cache never serves them.
        if (!record.readable) ++cache.stats_.skipped;
        cache.dirty_ = true;
        continue;
      }
      const CacheKey key{record.job, expected_config, record.seed};
      // Last writer wins on duplicate keys (same rule as journal replay);
      // a later record also refreshes recency.
      const auto [it, fresh] = cache.index_.try_emplace(key);
      Entry& entry = it->second;
      if (fresh) {
        entry.lru_it = cache.lru_.insert(cache.lru_.end(), key);
      } else {
        cache.payload_bytes_ -= entry.payload.size();
        cache.lru_.splice(cache.lru_.end(), cache.lru_, entry.lru_it);
        cache.dirty_ = true;  // duplicate frames on disk
      }
      cache.payload_bytes_ += record.payload.size();
      entry.payload = std::move(record.payload);
    }
    cache.stats_.loaded = cache.index_.size();
    if (cache.stats_.invalidated > 0) {
      std::fprintf(stderr,
                   "cache: invalidated %zu entries in %s with a stale config "
                   "fingerprint (current %s) — the pipeline configuration "
                   "changed; those apps will recompute\n",
                   cache.stats_.invalidated, cache.store_path_.c_str(),
                   expected_config.hex().c_str());
    }
    if (cache.stats_.skipped > 0) {
      std::fprintf(stderr, "cache: skipped %zu undecodable entries in %s\n",
                   cache.stats_.skipped, cache.store_path_.c_str());
    }
  }

  // Re-stamp a stale store now, not at seal: a run killed before its seal
  // must not leave fresh records behind a stale metadata record.
  support::JournalWriterOptions writer_options;
  writer_options.fsync_each_record = config.fsync_each_insert;
  writer_options.truncate = !current;
  writer_options.fault_site = support::FaultSite::kCacheWrite;
  auto writer = support::JournalWriter::open(cache.store_path_, writer_options);
  if (!writer.ok()) {
    return support::Result<ResultCache>::failure(writer.error());
  }
  cache.writer_.emplace(std::move(writer).take());
  if (!current) {
    const auto stamped = cache.writer_->append(cache.meta_record_);
    if (!stamped.ok()) {
      return support::Result<ResultCache>::failure(stamped.error());
    }
  }

  // Loaded entries may already exceed this run's (possibly tighter)
  // bounds.
  {
    std::lock_guard<std::mutex> lock(*cache.mutex_);
    cache.evict_past_bounds_locked();
  }
  return cache;
}

ResultCache::~ResultCache() {
  if (mutex_) (void)seal();
}

std::optional<AppOutcome> ResultCache::lookup(const CacheKey& key) {
  // The lock covers only the index: find, copy the payload's Blob (a
  // refcount bump, never its bytes), refresh recency, count. Decoding
  // (microseconds per hit) runs unlocked, so the workers' hits do not queue
  // behind each other; the Blob keeps its bytes alive even if another
  // worker overwrites or drops the entry meanwhile.
  support::Blob payload;
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    if (support::fault_fire(support::FaultSite::kCacheRead)) {
      // Injected read error: the cache is advisory, so a failed read is
      // just a miss — the app recomputes and the run's outputs do not
      // change.
      ++stats_.read_faults;
      ++stats_.misses;
      return std::nullopt;
    }
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    payload = it->second.payload;
    touch_locked(it->second);
    ++stats_.hits;
  }
  DecodedOutcome decoded;
  try {
    decoded = decode_outcome(payload);
  } catch (const support::ParseError& e) {
    // An entry that passed CRC at open but no longer decodes (foreign
    // outcome codec version): drop it and recompute.
    std::fprintf(stderr, "cache: dropping undecodable entry (%s)\n", e.what());
    drop_undecodable(key, payload);
    return std::nullopt;
  }
  AppOutcome outcome = std::move(decoded.outcome);
  // decode_outcome stamps journal-replay provenance; a cache hit is not a
  // journal replay. The runner stamps cache provenance on its side.
  outcome.replayed = false;
  return outcome;
}

void ResultCache::insert(const CacheKey& key, const AppOutcome& outcome) {
  // A sandbox-killed outcome is a fact about the sandbox environment
  // (limits, deadline, external kills), not about the app content the key
  // addresses — never cache it; the app recomputes next run.
  if (outcome.sandbox_fate != SandboxFate::kNone) return;
  // Encoding needs no lock. Index 0: the corpus index belongs to a run,
  // not to the content-addressed result.
  support::Blob payload = support::Blob::take(encode_outcome(0, outcome));
  std::lock_guard<std::mutex> lock(*mutex_);
  if (!writer_.has_value()) return;  // sealed: run is shutting down
  const auto appended = writer_->append(payload);
  if (!appended.ok()) {
    // cache.write fault or real I/O error: the frame on disk is torn, the
    // entry is dropped. dirty_ forces seal() to compact, which rewrites
    // the file from the intact in-memory entries and so repairs the tear.
    ++stats_.write_failures;
    dirty_ = true;
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    payload_bytes_ -= it->second.payload.size();
    payload_bytes_ += payload.size();
    it->second.payload = std::move(payload);
    touch_locked(it->second);
    dirty_ = true;  // the overwritten frame is now garbage on disk
  } else {
    const auto lru_it = lru_.insert(lru_.end(), key);
    payload_bytes_ += payload.size();
    index_.emplace(key, Entry{std::move(payload), lru_it});
  }
  evict_past_bounds_locked();
}

void ResultCache::drop_undecodable(const CacheKey& key,
                                   const support::Blob& payload) {
  std::lock_guard<std::mutex> lock(*mutex_);
  // The lookup counted a hit; it served a miss.
  --stats_.hits;
  ++stats_.misses;
  // Another worker may have overwritten the entry since the lookup: drop it
  // only if it still holds the Blob that failed. `payload` keeps its buffer
  // alive, so an entry viewing the same address views the same bytes.
  const auto it = index_.find(key);
  if (it == index_.end() || it->second.payload.data() != payload.data() ||
      it->second.payload.size() != payload.size()) {
    return;
  }
  payload_bytes_ -= it->second.payload.size();
  lru_.erase(it->second.lru_it);
  index_.erase(it);
  ++stats_.skipped;
  dirty_ = true;
}

void ResultCache::touch_locked(Entry& entry) {
  if (std::next(entry.lru_it) == lru_.end()) return;  // already most recent
  lru_.splice(lru_.end(), lru_, entry.lru_it);
  // Bounds are set per run (CacheConfig), not stored with the file, so
  // only a bounded run keeps its hits' recency: the move must reach the
  // file it evicts by. An unbounded run leaves the file order as it was,
  // and its seal after hits stays an fsync; a later bounded run on the
  // same store evicts by that older order.
  if (config_.max_entries != 0 || config_.max_bytes != 0) dirty_ = true;
}

void ResultCache::evict_past_bounds_locked() {
  while (!lru_.empty() &&
         ((config_.max_entries != 0 && index_.size() > config_.max_entries) ||
          (config_.max_bytes != 0 && payload_bytes_ > config_.max_bytes))) {
    const CacheKey victim = lru_.front();
    const auto it = index_.find(victim);
    payload_bytes_ -= it->second.payload.size();
    lru_.pop_front();
    index_.erase(it);
    ++stats_.evictions;
    dirty_ = true;  // evicted frames stay on disk until compaction
  }
}

support::Status ResultCache::seal() {
  if (!mutex_) return {};  // moved-from shell
  std::lock_guard<std::mutex> lock(*mutex_);
  if (!writer_.has_value()) return {};  // already sealed
  support::Status status = writer_->seal();
  writer_.reset();
  if (!dirty_) return status;

  // Compact: rewrite the store to its metadata record and the surviving
  // records, verbatim, in LRU order (least recent first — file order IS
  // recency order at the next open), then atomically swap it in. On any
  // failure the original file is left in place: it still replays
  // correctly, just with garbage frames.
  const std::string tmp_path = store_path_ + ".compact";
  support::JournalWriterOptions writer_options;
  writer_options.truncate = true;
  writer_options.fault_site = support::FaultSite::kCacheWrite;
  auto writer = support::JournalWriter::open(tmp_path, writer_options);
  if (!writer.ok()) return support::Status::failure(writer.error());
  support::Status appended = writer.value().append(meta_record_);
  for (auto key = lru_.begin(); appended.ok() && key != lru_.end(); ++key) {
    appended = writer.value().append(index_.at(*key).payload);
  }
  if (!appended.ok()) {
    (void)writer.value().seal();
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    return appended;
  }
  const auto sealed = writer.value().seal();
  if (!sealed.ok()) return sealed;
  std::error_code ec;
  std::filesystem::rename(tmp_path, store_path_, ec);
  if (ec) {
    return support::Status::failure("cache: cannot rename " + tmp_path +
                                    " over " + store_path_ + ": " +
                                    ec.message());
  }
  // The rename is only crash-durable once the parent directory is fsynced;
  // without it the swap itself can vanish after power loss and the next
  // open would replay the garbage-laden pre-compaction file.
  if (const auto synced = support::fsync_parent_dir(store_path_);
      !synced.ok()) {
    return synced;
  }
  dirty_ = false;
  return status;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return index_.size();
}

std::uint64_t ResultCache::payload_bytes() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return payload_bytes_;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return stats_;
}

std::vector<CacheKey> ResultCache::lru_order() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return {lru_.begin(), lru_.end()};
}

// ---- config fingerprint ----------------------------------------------------

support::Sha256Digest config_fingerprint(const core::DyDroid& pipeline) {
  const core::PipelineOptions& options = pipeline.options();
  support::ByteWriter w;
  // Domain label + codec version: bumping the outcome codec re-keys every
  // entry, so a new driver never replays payloads it cannot decode.
  w.str("dydroid.config.v1");
  w.u8(kOutcomeCodecVersion);

  // Stage list (execution order). A custom stage list — extra stage,
  // reordering, static-only subset — is a different pipeline.
  const auto stages = pipeline.stage_names();
  w.u32(static_cast<std::uint32_t>(stages.size()));
  for (const auto name : stages) w.str(name);

  // Engine / device / runtime knobs: anything that steers the fuzzer, the
  // VM budget or the simulated environment steers the report.
  w.u32(static_cast<std::uint32_t>(options.engine.monkey.num_events));
  w.u32(static_cast<std::uint32_t>(options.engine.monkey.num_view_ids));
  w.u64(options.engine.limits.max_steps_per_entry);
  w.u32(static_cast<std::uint32_t>(options.engine.limits.max_call_depth));
  w.u32(static_cast<std::uint32_t>(options.device.api_level));
  w.u64(options.device.storage_capacity_bytes);
  w.u8(options.runtime.time_ms.has_value() ? 1 : 0);
  w.i64(options.runtime.time_ms.value_or(0));
  w.u8(options.runtime.airplane_mode ? 1 : 0);
  w.u8(options.runtime.wifi_enabled ? 1 : 0);
  w.u8(options.runtime.location_enabled ? 1 : 0);

  // Detector identity: its threshold and what it learned (the digest of
  // every accepted training sample, in training order).
  w.u8(options.detector != nullptr ? 1 : 0);
  if (options.detector != nullptr) {
    w.u64(std::bit_cast<std::uint64_t>(options.detector->threshold()));
    w.raw(options.detector->training_digest().bytes);
  }

  // Fault plan: injected failures are part of the deterministic outcome
  // (a crash bucket under faults is a *correct* result for that plan). The
  // driver-level sites are left out: they abort or degrade a run but never
  // change a report, so a plan arming only them fingerprints like no plan.
  support::FaultPlan report_faults;
  if (options.faults != nullptr) report_faults = *options.faults;
  for (const auto site :
       {support::FaultSite::kJournalAppend, support::FaultSite::kDriverKill,
        support::FaultSite::kCacheRead, support::FaultSite::kCacheWrite}) {
    report_faults.set(site, support::FaultSpec::never());
  }
  w.u8(report_faults.empty() ? 0 : 1);
  if (!report_faults.empty()) w.str(report_faults.to_string());

  // Driver policy that shapes outcomes: timeout budget, retry/quarantine.
  w.u64(std::bit_cast<std::uint64_t>(options.max_app_wall_ms));
  w.u8(options.retry_on_crash ? 1 : 0);

  return support::sha256(w.data());
}

support::Sha256Digest job_digest(const AppJob& job) {
  // Prefix-free: the APK's length and the scenario's self-delimiting
  // encoding lead, so no APK's bytes can pose as another job's scenario.
  support::ByteWriter w;
  w.u64(job.apk.size());
  job.scenario.encode(w);
  support::Sha256 hasher;
  hasher.update(w.data());
  hasher.update(job.apk.span());
  return hasher.digest();
}

}  // namespace dydroid::driver
