// CodeInterceptor: registers on a Vm's instrumentation and implements the
// paper's DCL logger + code interceptor + download tracker:
//   - logs every class-loader construction / native load with call-site
//     attribution (skipping trusted /system/lib binaries),
//   - snapshots the loaded files' bytes,
//   - holds loaded paths in a queue and makes delete/rename on them silently
//     fail (mutual exclusion against temporary ad-SDK payloads),
//   - feeds the Table-I flow graph for provenance queries.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/dcl_log.hpp"
#include "core/download_tracker.hpp"
#include "vm/vm.hpp"

namespace dydroid::core {

class CodeInterceptor {
 public:
  /// Installs hooks on `vm`. The interceptor must outlive the Vm's use.
  explicit CodeInterceptor(vm::Vm& vm);
  CodeInterceptor(const CodeInterceptor&) = delete;
  CodeInterceptor& operator=(const CodeInterceptor&) = delete;

  [[nodiscard]] const std::vector<DclEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<InterceptedBinary>& binaries() const {
    return binaries_;
  }
  [[nodiscard]] const DownloadTracker& tracker() const { return tracker_; }

  /// Hand the results over once the run is done, leaving them empty.
  [[nodiscard]] std::vector<DclEvent> take_events() {
    return std::move(events_);
  }
  [[nodiscard]] std::vector<InterceptedBinary> take_binaries() {
    return std::move(binaries_);
  }
  [[nodiscard]] DownloadTracker take_tracker() { return std::move(tracker_); }

  /// Count of blocked delete/rename attempts (ablation metric).
  [[nodiscard]] std::size_t blocked_mutations() const { return blocked_; }

 private:
  void on_load(CodeKind kind, const std::vector<std::string>& paths,
               const std::string& optimized_dir, vm::StackTrace trace);

  vm::Vm* vm_;
  std::string app_package_;
  std::vector<DclEvent> events_;
  std::vector<InterceptedBinary> binaries_;
  std::set<std::string> queue_;           // protected paths
  std::set<std::string> snapshotted_;     // avoid duplicate binaries
  DownloadTracker tracker_;
  bool digest_seen_ = false;  // integrity-verification API observed
  std::size_t blocked_ = 0;
};

}  // namespace dydroid::core
