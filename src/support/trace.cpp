#include "support/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>

namespace dydroid::support {

namespace trace_detail {
std::atomic<std::uint8_t> g_flags{0};
}  // namespace trace_detail

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

// ---- worker-local ring buffers ---------------------------------------------

/// One thread's span buffer. Owner-only writes during a run (lock-free hot
/// path); the registry mutex only guards registration and collection.
struct TraceBuffer {
  std::vector<TraceEvent> ring;
  std::size_t head = 0;          // next write position
  std::size_t size = 0;          // events currently held (<= ring.size())
  std::uint64_t dropped = 0;     // overwritten events since last reset
};

/// Registry of every thread's buffer, kept alive for the process lifetime
/// so the cached thread_local pointers can never dangle. trace_reset()
/// clears contents, never deallocates entries.
struct TraceRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
  std::size_t ring_capacity = kDefaultTraceRingCapacity;
  std::uint64_t epoch_ns = 0;
};

TraceRegistry& registry() {
  static TraceRegistry* instance = new TraceRegistry();  // never destroyed
  return *instance;
}

thread_local TraceBuffer* tl_buffer = nullptr;

TraceBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    auto& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<TraceBuffer>());
    tl_buffer = reg.buffers.back().get();
    tl_buffer->ring.resize(reg.ring_capacity);
  }
  return *tl_buffer;
}

// ---- ambient span context --------------------------------------------------

struct ThreadTraceContext {
  std::uint32_t app = kTraceNoApp;
  std::uint32_t attempt = 0;
  std::uint32_t worker = 0;
  std::uint32_t depth = 0;
};

thread_local ThreadTraceContext tl_context;

// ---- metrics registry ------------------------------------------------------

inline constexpr std::size_t kMaxCounters = 64;
inline constexpr std::size_t kMaxHistograms = 64;

struct CounterSlot {
  std::string name;
  std::atomic<std::uint64_t> value{0};
};

struct HistogramSlot {
  std::string name;
  std::atomic<std::uint64_t> observations{0};
  std::atomic<std::uint64_t> sum_us{0};
  std::atomic<std::uint64_t> max_us{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// Fixed-capacity name→slot registries. Lookup is a linear scan over the
/// published prefix (acquire on `used`); creation appends under the mutex
/// and publishes with release, so readers never see a half-built slot.
/// Linear scan over <=64 short names costs nanoseconds and only ever runs
/// with metrics enabled.
template <typename Slot, std::size_t Capacity>
struct SlotTable {
  std::mutex mutex;
  std::array<Slot, Capacity> slots;
  std::atomic<std::size_t> used{0};

  Slot* find_or_create(std::string_view name) {
    const std::size_t n = used.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[i].name == name) return &slots[i];
    }
    const std::lock_guard<std::mutex> lock(mutex);
    const std::size_t m = used.load(std::memory_order_relaxed);
    for (std::size_t i = n; i < m; ++i) {
      if (slots[i].name == name) return &slots[i];
    }
    if (m >= Capacity) return nullptr;  // registry full: drop silently
    slots[m].name = std::string(name);
    used.store(m + 1, std::memory_order_release);
    return &slots[m];
  }
};

struct MetricsState {
  SlotTable<CounterSlot, kMaxCounters> counters;
  SlotTable<HistogramSlot, kMaxHistograms> histograms;
};

MetricsState& metrics_state() {
  static MetricsState* instance = new MetricsState();  // never destroyed
  return *instance;
}

void record_histogram(HistogramSlot& slot, std::uint64_t us) {
  slot.observations.fetch_add(1, std::memory_order_relaxed);
  slot.sum_us.fetch_add(us, std::memory_order_relaxed);
  slot.buckets[histogram_bucket(us)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = slot.max_us.load(std::memory_order_relaxed);
  while (us > seen && !slot.max_us.compare_exchange_weak(
                          seen, us, std::memory_order_relaxed)) {
  }
}

// ---- span-slot cache -------------------------------------------------------

/// Span categories and names are string literals at fixed addresses, so a
/// finished span can skip the "<cat>.<name>" join and the registry's linear
/// scan almost always: a small thread-local direct-mapped table keyed on the
/// (cat, name) pointer identity remembers each span's histogram slot. Slots
/// live for the process lifetime and metrics_reset() only zeroes their
/// values, so a cached pointer can never dangle. Keys compare data pointer
/// AND length — linkers overlap literal tails, so a bare pointer match
/// could alias two different names. This cache is span-only: count() and
/// observe_us() may be handed dynamically built names whose addresses are
/// reused, and must keep scanning by content.
struct SpanSlotEntry {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::size_t cat_size = 0;
  std::size_t name_size = 0;
  HistogramSlot* slot = nullptr;
};

inline constexpr std::size_t kSpanSlotCacheSize = 64;  // power of two

thread_local std::array<SpanSlotEntry, kSpanSlotCacheSize> tl_span_slots;

HistogramSlot* span_slot(std::string_view cat, std::string_view name);

/// Record a finished span's duration into the "<cat>.<name>" histogram.
void observe_span(std::string_view cat, std::string_view name,
                  std::uint64_t us) {
  if (HistogramSlot* slot = span_slot(cat, name)) {
    record_histogram(*slot, us);
  }
}

HistogramSlot* span_slot(std::string_view cat, std::string_view name) {
  const auto mix = [](const char* p) {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(p) * 0x9E3779B97F4A7C15ull) >> 32);
  };
  SpanSlotEntry& entry =
      tl_span_slots[(mix(cat.data()) ^ (mix(name.data()) << 1)) &
                    (kSpanSlotCacheSize - 1)];
  if (entry.cat == cat.data() && entry.cat_size == cat.size() &&
      entry.name == name.data() && entry.name_size == name.size()) {
    return entry.slot;
  }
  // Miss: build the joined name in a small stack buffer (no allocation)
  // and resolve it by content, then remember the slot for this identity.
  char joined[96];
  const std::size_t cat_n = std::min(cat.size(), sizeof(joined) / 2);
  const std::size_t name_n =
      std::min(name.size(), sizeof(joined) - cat_n - 1);
  std::copy_n(cat.data(), cat_n, joined);
  joined[cat_n] = '.';
  std::copy_n(name.data(), name_n, joined + cat_n + 1);
  HistogramSlot* slot = metrics_state().histograms.find_or_create(
      std::string_view(joined, cat_n + 1 + name_n));
  if (slot != nullptr) {
    entry = {cat.data(), name.data(), cat.size(), name.size(), slot};
  }
  return slot;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

// ---- enable flags ----------------------------------------------------------

void set_trace_enabled(bool on) {
  auto& flags = trace_detail::g_flags;
  if (on) {
    trace_reset(registry().ring_capacity);
    flags.fetch_or(kTraceBit, std::memory_order_relaxed);
  } else {
    flags.fetch_and(static_cast<std::uint8_t>(~kTraceBit),
                    std::memory_order_relaxed);
  }
}

void set_metrics_enabled(bool on) {
  auto& flags = trace_detail::g_flags;
  if (on) {
    flags.fetch_or(kMetricsBit, std::memory_order_relaxed);
  } else {
    flags.fetch_and(static_cast<std::uint8_t>(~kMetricsBit),
                    std::memory_order_relaxed);
  }
}

// ---- spans -----------------------------------------------------------------

TraceContextScope::TraceContextScope(std::uint32_t app, std::uint32_t attempt,
                                     std::uint32_t worker)
    : prev_app_(tl_context.app),
      prev_attempt_(tl_context.attempt),
      prev_worker_(tl_context.worker) {
  tl_context.app = app;
  tl_context.attempt = attempt;
  tl_context.worker = worker;
}

TraceContextScope::~TraceContextScope() {
  tl_context.app = prev_app_;
  tl_context.attempt = prev_attempt_;
  tl_context.worker = prev_worker_;
}

void Span::open(std::string_view cat, std::string_view name) {
  cat_ = cat;
  name_ = name;
  begin_ns_ = now_ns();
  ++tl_context.depth;
}

void Span::close() {
  const std::uint64_t end_ns = now_ns();
  --tl_context.depth;
  if ((flags_ & kMetricsBit) != 0) {
    observe_span(cat_, name_, (end_ns - begin_ns_) / 1000);
  }
  if ((flags_ & kTraceBit) == 0) return;
  TraceBuffer& buffer = local_buffer();
  if (buffer.ring.empty()) return;
  const std::uint64_t epoch = registry().epoch_ns;
  TraceEvent& event = buffer.ring[buffer.head];
  event.begin_ns = begin_ns_ > epoch ? begin_ns_ - epoch : 0;
  event.dur_ns = end_ns - begin_ns_;
  event.cat = cat_;
  event.name = name_;
  event.app = tl_context.app;
  event.attempt = tl_context.attempt;
  event.worker = tl_context.worker;
  event.depth = tl_context.depth;
  buffer.head = (buffer.head + 1) % buffer.ring.size();
  if (buffer.size < buffer.ring.size()) {
    ++buffer.size;
  } else {
    ++buffer.dropped;  // ring full: the oldest event was overwritten
  }
}

void trace_reset(std::size_t ring_capacity) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.ring_capacity = ring_capacity > 0 ? ring_capacity : 1;
  reg.epoch_ns = now_ns();
  for (auto& buffer : reg.buffers) {
    buffer->ring.assign(reg.ring_capacity, TraceEvent{});
    buffer->head = 0;
    buffer->size = 0;
    buffer->dropped = 0;
  }
}

std::vector<TraceEvent> trace_collect() {
  auto& reg = registry();
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buffer : reg.buffers) {
      const std::size_t n = buffer->size;
      const std::size_t cap = buffer->ring.size();
      if (n == 0 || cap == 0) continue;
      // Oldest surviving event first.
      const std::size_t start = (buffer->head + cap - n) % cap;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(buffer->ring[(start + i) % cap]);
      }
    }
  }
  // Deterministic merge order: independent of which thread owned which
  // buffer and of registration order.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                     if (a.app != b.app) return a.app < b.app;
                     if (a.attempt != b.attempt) return a.attempt < b.attempt;
                     if (a.worker != b.worker) return a.worker < b.worker;
                     if (a.depth != b.depth) return a.depth < b.depth;
                     if (a.cat != b.cat) return a.cat < b.cat;
                     if (a.name != b.name) return a.name < b.name;
                     return a.dur_ns < b.dur_ns;
                   });
  return out;
}

std::uint64_t trace_dropped() {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t dropped = 0;
  for (const auto& buffer : reg.buffers) dropped += buffer->dropped;
  return dropped;
}

std::string trace_to_chrome_json(std::span<const TraceEvent> events) {
  std::string out;
  out.reserve(128 + events.size() * 120);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const auto& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", event.worker);
    out += buf;
    out += ",\"cat\":\"";
    append_json_escaped(out, event.cat);
    out += "\",\"name\":\"";
    append_json_escaped(out, event.name);
    // ts/dur in microseconds (Chrome's unit), 3 decimals keeps ns precision.
    std::snprintf(buf, sizeof(buf), "\",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(event.begin_ns) / 1000.0,
                  static_cast<double>(event.dur_ns) / 1000.0);
    out += buf;
    out += ",\"args\":{";
    if (event.app != kTraceNoApp) {
      std::snprintf(buf, sizeof(buf), "\"app\":%u,\"attempt\":%u,",
                    event.app, event.attempt);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "\"depth\":%u}}", event.depth);
    out += buf;
  }
  out += "]}\n";
  return out;
}

Status trace_write_chrome_json(const std::string& path) {
  const auto events = trace_collect();
  const std::string json = trace_to_chrome_json(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::failure("trace: cannot write " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::failure("trace: short write to " + path);
  }
  return {};
}

// ---- metrics ---------------------------------------------------------------

std::size_t histogram_bucket(std::uint64_t us) {
  if (us == 0) return 0;
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(us));
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

std::uint64_t histogram_bucket_lo(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

void count(std::string_view name, std::uint64_t delta) {
  if (!metrics_enabled()) return;
  if (CounterSlot* slot = metrics_state().counters.find_or_create(name)) {
    slot->value.fetch_add(delta, std::memory_order_relaxed);
  }
}

void observe_us(std::string_view name, std::uint64_t us) {
  if (!metrics_enabled()) return;
  if (HistogramSlot* slot = metrics_state().histograms.find_or_create(name)) {
    record_histogram(*slot, us);
  }
}

double HistogramValue::quantile_us(double q) const {
  if (observations == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(observations - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) > rank) {
      // Interpolate linearly inside [lo, hi) and clamp to the real max.
      const double lo = static_cast<double>(histogram_bucket_lo(b));
      const double hi =
          b == 0 ? 1.0 : static_cast<double>(histogram_bucket_lo(b) * 2);
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return std::min(lo + frac * (hi - lo), static_cast<double>(max_us));
    }
    seen += in_bucket;
  }
  return static_cast<double>(max_us);
}

const CounterValue* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramValue* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot metrics_snapshot() {
  auto& state = metrics_state();
  MetricsSnapshot snapshot;
  const std::size_t nc = state.counters.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < nc; ++i) {
    const auto& slot = state.counters.slots[i];
    snapshot.counters.push_back(
        {slot.name, slot.value.load(std::memory_order_relaxed)});
  }
  const std::size_t nh = state.histograms.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < nh; ++i) {
    const auto& slot = state.histograms.slots[i];
    HistogramValue value;
    value.name = slot.name;
    value.observations = slot.observations.load(std::memory_order_relaxed);
    value.sum_us = slot.sum_us.load(std::memory_order_relaxed);
    value.max_us = slot.max_us.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      value.buckets[b] = slot.buckets[b].load(std::memory_order_relaxed);
    }
    snapshot.histograms.push_back(std::move(value));
  }
  std::sort(snapshot.counters.begin(), snapshot.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snapshot;
}

void metrics_reset() {
  auto& state = metrics_state();
  const std::size_t nc = state.counters.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < nc; ++i) {
    state.counters.slots[i].value.store(0, std::memory_order_relaxed);
  }
  const std::size_t nh = state.histograms.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < nh; ++i) {
    auto& slot = state.histograms.slots[i];
    slot.observations.store(0, std::memory_order_relaxed);
    slot.sum_us.store(0, std::memory_order_relaxed);
    slot.max_us.store(0, std::memory_order_relaxed);
    for (auto& bucket : slot.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

std::string format_latency_table(const MetricsSnapshot& snapshot,
                                 std::span<const std::string_view> prefixes) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-24s %10s %9s %9s %9s %11s\n",
                "latency (ms)", "count", "p50", "p95", "max", "total");
  out += line;
  for (const auto& h : snapshot.histograms) {
    bool match = prefixes.empty();
    for (const auto& prefix : prefixes) {
      if (h.name.starts_with(prefix)) {
        match = true;
        break;
      }
    }
    if (!match || h.observations == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  %-24s %10llu %9.3f %9.3f %9.3f %11.1f\n", h.name.c_str(),
                  static_cast<unsigned long long>(h.observations),
                  h.quantile_us(0.50) / 1000.0, h.quantile_us(0.95) / 1000.0,
                  static_cast<double>(h.max_us) / 1000.0,
                  static_cast<double>(h.sum_us) / 1000.0);
    out += line;
  }
  return out;
}

void trace_fork_lock() {
  registry().mutex.lock();
  metrics_state().counters.mutex.lock();
  metrics_state().histograms.mutex.lock();
}

void trace_fork_unlock() {
  metrics_state().histograms.mutex.unlock();
  metrics_state().counters.mutex.unlock();
  registry().mutex.unlock();
}

}  // namespace dydroid::support
