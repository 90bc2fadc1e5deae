// MiniFlowDroid: static data-flow analysis over intercepted DEX code.
//
// The paper adapts FlowDroid to bare dynamically-loaded binaries: no
// manifest, no layout resources — "an arbitrary class can be the entry point
// to the loaded libraries". Accordingly every method of every class is an
// entry point here. The analysis is inter-procedural (call-site parameter /
// return propagation to fixpoint), field-aware (name-keyed field taint) and
// constant-tracking for content-provider URIs.
#pragma once

#include <string>
#include <vector>

#include "dex/dexfile.hpp"
#include "privacy/sources.hpp"

namespace dydroid::privacy {

struct Leak {
  DataType type{};
  std::string sink_api;     // "cls.method" of the sink
  std::string sink_class;   // class containing the leaking call
  std::string sink_method;  // method containing the leaking call
};

struct PrivacyReport {
  std::vector<Leak> leaks;

  /// Union of leaked data types.
  [[nodiscard]] TaintMask leaked_mask() const;
};

/// Analyze one loaded binary (parsed dex).
PrivacyReport analyze_privacy(const dex::DexFile& dex);

}  // namespace dydroid::privacy
