#include "core/verdict_memo.hpp"

#include <utility>

#include "support/trace.hpp"

namespace dydroid::core {

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
  const std::lock_guard lock(mutex_);
  verdicts_.try_emplace(key, std::move(verdict));
}

}  // namespace dydroid::core
