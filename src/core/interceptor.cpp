#include "core/interceptor.hpp"

#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace dydroid::core {

CodeInterceptor::CodeInterceptor(vm::Vm& vm)
    : vm_(&vm), app_package_(vm.package()) {
  auto& hooks = vm.instrumentation();

  hooks.on_dex_load = [this](vm::LoaderKind, const std::string& dex_path,
                             const std::string& optimized_dir,
                             vm::StackTrace trace) {
    on_load(CodeKind::Dex, support::split(dex_path, ':'), optimized_dir,
            std::move(trace));
  };

  hooks.on_native_load = [this](const std::string& path,
                                vm::StackTrace trace) {
    on_load(CodeKind::Native, {path}, "", std::move(trace));
  };

  hooks.allow_file_delete = [this](const std::string& path) {
    if (queue_.count(path) != 0) {
      ++blocked_;
      return false;  // silent failure (paper §III-B)
    }
    return true;
  };

  hooks.allow_file_rename = [this](const std::string& from,
                                   const std::string& to) {
    if (queue_.count(from) != 0 || queue_.count(to) != 0) {
      ++blocked_;
      return false;
    }
    return true;
  };

  hooks.on_url_created = [this](const vm::FlowNode& node) {
    tracker_.add_url(node);
  };

  hooks.on_flow = [this](const vm::FlowNode& from, const vm::FlowNode& to) {
    tracker_.add_flow(from, to);
  };

  hooks.on_api_call = [this](std::string_view cls, std::string_view method) {
    if (cls == "java.security.MessageDigest" && method == "digest") {
      digest_seen_ = true;
    }
  };
}

void CodeInterceptor::on_load(CodeKind kind,
                              const std::vector<std::string>& paths,
                              const std::string& optimized_dir,
                              vm::StackTrace trace) {
  DclEvent event;
  event.kind = kind;
  event.optimized_dir = optimized_dir;
  event.call_site_class = call_site_of(trace);
  event.trace = std::move(trace);
  event.entity = classify_entity(event.call_site_class, app_package_);
  event.integrity_check_before = digest_seen_;

  for (const auto& path : paths) {
    if (path.empty()) continue;
    event.paths.push_back(path);
    if (path.starts_with(os::kSystemLibDir)) {
      // Trusted OS-vendor binaries: logged, not intercepted.
      event.system_binary = true;
      continue;
    }
    // Protect the file from deletion/renaming, then snapshot it.
    queue_.insert(path);
    if (snapshotted_.insert(path).second) {
      if (const auto bytes = vm_->device().vfs().read_file(path)) {
        // Fault-injection site: the snapshot copy suffers a short write and
        // is discarded — the event is still logged, but the binary is lost
        // to the per-binary analyses (support::FaultInjector).
        if (support::fault_fire(support::FaultSite::kInterceptorIo)) {
          support::log_warn("interceptor",
                            "snapshot short write, dropped: " + path);
        } else {
          InterceptedBinary binary;
          binary.kind = kind;
          binary.path = path;
          binary.set_bytes(*bytes);
          binary.call_site_class = event.call_site_class;
          binary.entity = event.entity;
          binaries_.push_back(std::move(binary));
        }
      }
    }
  }
  events_.push_back(std::move(event));
}

}  // namespace dydroid::core
