// Compiles an AppSpec into a runnable SimApk plus its runtime scenario
// (remote servers to host, companion apps to install).
#pragma once

#include "appgen/spec.hpp"
#include "support/rng.hpp"

namespace dydroid::appgen {

/// Build one app. Deterministic given (spec, rng state).
GeneratedApp build_app(const AppSpec& spec, support::Rng& rng);

/// Release timestamp baked into time-gated malware (ms since epoch); the
/// default device clock sits after it, a "before release" Table VIII run
/// sits before it.
inline constexpr std::int64_t kReleaseTimeMs = 1'475'000'000'000;  // Sep 2016

}  // namespace dydroid::appgen
