#include "core/dynamic_taint.hpp"

#include "core/dcl_log.hpp"

namespace dydroid::core {

DynamicTaintTracker::DynamicTaintTracker(vm::Vm& vm) : vm_(&vm) {
  auto& hooks = vm.instrumentation();

  const auto prev_source = hooks.taint_source;
  hooks.taint_source = [prev_source](std::string_view cls,
                                     std::string_view method,
                                     std::span<const vm::Value> args)
      -> std::uint32_t {
    std::uint32_t mask = prev_source ? prev_source(cls, method, args) : 0;
    if (const auto type = privacy::source_api(cls, method)) {
      mask |= privacy::mask_of(*type);
    }
    // Content providers: dynamic analysis sees the CONCRETE URI.
    if (cls == "android.content.ContentResolver" && method == "query" &&
        !args.empty() && args[0].is_str()) {
      if (const auto type = privacy::source_uri(args[0].as_str())) {
        mask |= privacy::mask_of(*type);
      }
    }
    return mask;
  };

  const auto prev_call = hooks.on_intrinsic_call;
  hooks.on_intrinsic_call = [this, prev_call](
                                std::string_view cls, std::string_view method,
                                std::span<const vm::Value> args) {
    if (prev_call) prev_call(cls, method, args);
    if (!privacy::is_sink_api(cls, method)) return;
    std::uint32_t mask = 0;
    for (const auto& a : args) mask |= a.taint();
    if (mask == 0) return;
    DynamicLeak leak;
    leak.mask = mask;
    leak.sink_api = std::string(cls) + "." + std::string(method);
    leak.call_site_class = call_site_of(vm_->current_stack_trace());
    leaks_.push_back(std::move(leak));
  };
}

privacy::TaintMask DynamicTaintTracker::leaked_mask() const {
  privacy::TaintMask mask = 0;
  for (const auto& leak : leaks_) mask |= leak.mask;
  return mask;
}

}  // namespace dydroid::core
