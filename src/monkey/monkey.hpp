// MiniMonkey: the UI/Application exerciser analogue.
//
// Generates a deterministic pseudo-random event sequence against an app's
// callback surface: the application container (if declared) boots first,
// then the launcher activity's onCreate, then fuzz events (onClick ids,
// onResume/onPause, service onStartCommand, receiver onReceive). Apps
// without any Activity cannot be exercised (paper Table II "No activity");
// uncaught exceptions surface as "Crash".
#pragma once

#include <string>

#include "support/rng.hpp"
#include "vm/vm.hpp"

namespace dydroid::monkey {

struct MonkeyConfig {
  int num_events = 40;
  /// Distinct onClick view ids to fuzz.
  int num_view_ids = 8;
};

enum class Outcome {
  kNoActivity,  // nothing to exercise
  kCrash,       // uncaught exception escaped a lifecycle/event callback
  kExercised,   // event budget delivered
};

struct MonkeyResult {
  Outcome outcome = Outcome::kExercised;
  std::string crash_message;
  int events_delivered = 0;
};

/// Run the fuzzing session against an app already loaded into `vm`.
MonkeyResult run_monkey(vm::Vm& vm, const MonkeyConfig& config,
                        support::Rng& rng);

}  // namespace dydroid::monkey
