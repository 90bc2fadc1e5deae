// App Execution Engine (Figure 1): boots one app inside a fresh MiniDalvik
// VM on a SimDevice, attaches the interceptor, drives it with MiniMonkey,
// and recovers automatically from environment failures such as the device
// storage running out (paper §I: "Various types of exceptions are
// automatically handled").
#pragma once

#include <memory>

#include "core/interceptor.hpp"
#include "monkey/monkey.hpp"

namespace dydroid::core {

struct EngineConfig {
  monkey::MonkeyConfig monkey;
  vm::VmLimits limits;
};

struct RunResult {
  monkey::MonkeyResult monkey;
  std::vector<DclEvent> events;
  std::vector<InterceptedBinary> binaries;
  std::vector<vm::VmEvent> vm_events;
  DownloadTracker tracker;
  std::size_t blocked_mutations = 0;
  /// The engine recovered from a full device by clearing app caches and
  /// re-running once.
  bool storage_recovered = false;
};

/// Execute an app already installed on `device`, running the decompiler's
/// parse of its classes.dex (non-null).
RunResult run_app(os::Device& device,
                  std::shared_ptr<const dex::DexFile> classes_dex,
                  const manifest::Manifest& manifest, support::Rng& rng,
                  const EngineConfig& config = {});

}  // namespace dydroid::core
