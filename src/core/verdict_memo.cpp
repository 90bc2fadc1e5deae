#include "core/verdict_memo.hpp"

#include <algorithm>

#include "support/hash.hpp"
#include "support/trace.hpp"

namespace dydroid::core {

std::size_t VerdictMemo::Hash::operator()(const VerdictKey& key) const {
  return support::fnv1a64(key.bytes);
}

bool VerdictMemo::Equal::operator()(const VerdictKey& a,
                                    const VerdictKey& b) const {
  return a.detector == b.detector && a.kind == b.kind &&
         std::ranges::equal(a.bytes, b.bytes);
}

std::optional<BinaryVerdict> VerdictMemo::find(const VerdictKey& key) const {
  std::optional<BinaryVerdict> hit;
  {
    const std::lock_guard lock(mutex_);
    if (const auto it = verdicts_.find(key); it != verdicts_.end()) {
      hit = it->second;
    }
  }
  support::count(hit.has_value() ? "pipeline.verdict_hits"
                                 : "pipeline.verdict_misses");
  return hit;
}

void VerdictMemo::insert(const VerdictKey& key, BinaryVerdict verdict) {
  {
    const std::lock_guard lock(mutex_);
    if (verdicts_.contains(key)) return;
    verdicts_.emplace(
        OwnedKey{key.detector, key.kind,
                 support::Bytes(key.bytes.begin(), key.bytes.end())},
        std::move(verdict));
  }
  support::count("pipeline.bytes_copied", key.bytes.size());
}

}  // namespace dydroid::core
