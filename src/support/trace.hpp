// Per-stage tracing & metrics (docs/OBSERVABILITY.md).
//
// DyDroid is a *measurement* system: a corpus run that only reports one
// wall_ms per app cannot say which pipeline stage, which fault retry or
// which journal append dominates. This header provides the observability
// layer the ROADMAP's perf work hangs off:
//
//   * Span / TRACE_SPAN — RAII spans recording begin/end on the monotonic
//     clock, tagged with the ambient (app index, attempt, worker) context
//     and nesting depth, buffered in lock-free worker-local ring buffers
//     and merged in a deterministic order at run end.
//   * count / observe_us — named counters and fixed-bucket log-scale
//     histograms (per-stage latency, retries, fault fires, journal append
//     bytes/latency). Every finished span also feeds the histogram of its
//     own "<cat>.<name>".
//   * MetricsSnapshot — a point-in-time copy with p50/p95/max estimators,
//     rendered as the per-stage latency table and the CLI `--metrics`
//     output, and read by perfbench for its per-layer rows.
//   * trace_write_chrome_json — Chrome `trace_event` JSON ("X" complete
//     events) loadable in chrome://tracing or Perfetto.
//
// Cost model: both facilities are **off by default**. A disabled Span
// constructor is a single relaxed atomic load and nothing else — no clock
// read, no buffer touch (bounded per span by the tier-2 overhead test; the
// enabled cost is perfbench's `trace.overhead_pct`). Instrumentation
// never feeds back into analysis results: reports are byte-identical with
// tracing on or off at any worker count (tested).
//
// Thread-safety: events land in a per-thread ring buffer (registered once
// per thread under a mutex, then owner-only writes); counters/histograms
// are relaxed atomics. trace_collect()/metrics_snapshot() may run
// concurrently with writers but are meant to be called after the worker
// pool quiesces — the runner collects once, after join.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dydroid::support {

// ---- enable flags ----------------------------------------------------------

inline constexpr std::uint8_t kTraceBit = 0x1;
inline constexpr std::uint8_t kMetricsBit = 0x2;

namespace trace_detail {
/// Fused tracing/metrics enable byte. One relaxed load decides whether a
/// span does any work at all — this is the entire disabled-path cost.
extern std::atomic<std::uint8_t> g_flags;
}  // namespace trace_detail

[[nodiscard]] inline std::uint8_t instrumentation_flags() {
  return trace_detail::g_flags.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool trace_enabled() {
  return (instrumentation_flags() & kTraceBit) != 0;
}
[[nodiscard]] inline bool metrics_enabled() {
  return (instrumentation_flags() & kMetricsBit) != 0;
}

/// Enable/disable span collection. Enabling (re)arms the collector:
/// existing buffered events are cleared and the trace epoch restarts.
void set_trace_enabled(bool on);
/// Enable/disable counters + histograms. Enabling does NOT reset existing
/// values; call metrics_reset() for a fresh window.
void set_metrics_enabled(bool on);

// ---- spans -----------------------------------------------------------------

/// Sentinel app index for spans recorded outside any per-app context.
inline constexpr std::uint32_t kTraceNoApp = 0xFFFFFFFFu;

/// One finished span. Timestamps are nanoseconds on the monotonic clock,
/// relative to the trace epoch (the last set_trace_enabled(true)).
struct TraceEvent {
  std::uint64_t begin_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string_view cat;   // "stage", "phase", "runner", "journal", ...
  std::string_view name;  // "static", "fuzz", "attempt", "append", ...
  std::uint32_t app = kTraceNoApp;  // corpus index
  std::uint32_t attempt = 0;        // retry ordinal
  std::uint32_t worker = 0;         // driver worker id
  std::uint32_t depth = 0;          // nesting depth at span open
};

/// Ambient per-thread span context. The corpus runner installs one scope
/// per (app, attempt); spans opened underneath inherit its tags, so deep
/// call sites (stages, the journal) never need the app index plumbed in.
class TraceContextScope {
 public:
  TraceContextScope(std::uint32_t app, std::uint32_t attempt,
                    std::uint32_t worker);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint32_t prev_app_;
  std::uint32_t prev_attempt_;
  std::uint32_t prev_worker_;
};

/// RAII span. `cat` and `name` must outlive the trace (string literals or
/// other static storage — stage names qualify). When both facilities are
/// disabled, construction is one relaxed atomic load and destruction a
/// single branch.
class Span {
 public:
  Span(std::string_view cat, std::string_view name) : flags_(instrumentation_flags()) {
    if (flags_ == 0) return;
    open(cat, name);
  }
  ~Span() {
    if (flags_ != 0) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(std::string_view cat, std::string_view name);  // cold path
  void close();                                            // cold path

  std::uint8_t flags_;
  std::uint64_t begin_ns_ = 0;
  std::string_view cat_;
  std::string_view name_;
};

#define DYDROID_TRACE_CONCAT_(a, b) a##b
#define DYDROID_TRACE_CONCAT(a, b) DYDROID_TRACE_CONCAT_(a, b)
/// Open a span for the rest of the enclosing scope:
///   TRACE_SPAN("stage", "unpack");
#define TRACE_SPAN(cat, name)                                      \
  const ::dydroid::support::Span DYDROID_TRACE_CONCAT(trace_span_, \
                                                      __LINE__)(cat, name)

/// Number of events each worker-local ring buffer holds before the oldest
/// are overwritten (drops are counted, never blocking).
inline constexpr std::size_t kDefaultTraceRingCapacity = 1u << 16;

/// Clear all buffered events, restart the trace epoch and (re)size the
/// per-thread rings. Implied by set_trace_enabled(true) with the default
/// capacity. Must not run concurrently with active spans.
void trace_reset(std::size_t ring_capacity = kDefaultTraceRingCapacity);

/// Merge every worker-local buffer into one deterministically-ordered
/// vector: sorted by (begin, app, attempt, worker, depth, cat, name, dur),
/// independent of thread registration or scheduling order.
[[nodiscard]] std::vector<TraceEvent> trace_collect();

/// Events dropped to ring-buffer overwrites since the last reset.
[[nodiscard]] std::uint64_t trace_dropped();

/// Render events as Chrome trace_event JSON ({"traceEvents":[...]}, "X"
/// complete events, ts/dur in microseconds), loadable in chrome://tracing
/// and Perfetto.
[[nodiscard]] std::string trace_to_chrome_json(
    std::span<const TraceEvent> events);

/// trace_collect() + trace_to_chrome_json() + write to `path`.
Status trace_write_chrome_json(const std::string& path);

// ---- metrics ---------------------------------------------------------------

/// Log-scale histogram buckets over microseconds: bucket 0 holds value 0,
/// bucket b>=1 holds [2^(b-1), 2^b) us. 40 buckets reach ~76 hours.
inline constexpr std::size_t kHistogramBuckets = 40;

/// Bucket index for a value in microseconds.
[[nodiscard]] std::size_t histogram_bucket(std::uint64_t us);
/// Inclusive lower bound of a bucket, in microseconds.
[[nodiscard]] std::uint64_t histogram_bucket_lo(std::size_t bucket);

/// Add `delta` to the named counter. No-op unless metrics are enabled.
void count(std::string_view name, std::uint64_t delta = 1);

/// Record one microsecond observation into the named histogram. No-op
/// unless metrics are enabled.
void observe_us(std::string_view name, std::uint64_t us);

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::uint64_t observations = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean_us() const {
    return observations > 0
               ? static_cast<double>(sum_us) / static_cast<double>(observations)
               : 0.0;
  }
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing log bucket; clamped to max_us.
  [[nodiscard]] double quantile_us(double q) const;
};

/// Point-in-time copy of every registered counter and histogram, sorted by
/// name (deterministic regardless of registration order).
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] const CounterValue* counter(std::string_view name) const;
  [[nodiscard]] const HistogramValue* histogram(std::string_view name) const;
};

[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Zero every counter and histogram (the registry of names survives).
void metrics_reset();

/// Render the per-stage latency table ("name count p50 p95 max total") for
/// every histogram whose name starts with one of the given prefixes; all
/// histograms when `prefixes` is empty.
[[nodiscard]] std::string format_latency_table(
    const MetricsSnapshot& snapshot,
    std::span<const std::string_view> prefixes = {});

/// Fork-safety hooks used by support::PoolWorker via pthread_atfork: the
/// trace ring registry and both metrics name registries are locked before
/// fork and unlocked in both parent and child, so a child forked while a
/// sibling thread registers its ring or a new metric name never inherits
/// that mutex locked (its first span would deadlock).
void trace_fork_lock();
void trace_fork_unlock();

}  // namespace dydroid::support
