#include "monkey/monkey.hpp"

#include "support/log.hpp"

namespace dydroid::monkey {

using manifest::ComponentKind;
using vm::Name;
using vm::ObjRef;
using vm::Value;
using vm::VmException;

MonkeyResult run_monkey(vm::Vm& vm, const MonkeyConfig& config,
                        support::Rng& rng) {
  MonkeyResult result;
  const auto& man = vm.manifest();

  const auto* launcher = man.launcher_activity();
  if (launcher == nullptr) {
    result.outcome = Outcome::kNoActivity;
    return result;
  }

  // The callbacks, named once for this Vm.
  const Name on_create = vm.intern("onCreate");
  const Name on_click = vm.intern("onClick");
  const Name on_resume = vm.intern("onResume");
  const Name on_pause = vm.intern("onPause");
  const Name on_start_command = vm.intern("onStartCommand");
  const Name on_receive = vm.intern("onReceive");

  try {
    // 1. Application container boots before any component (the packer
    //    pattern relies on this ordering).
    if (!man.application_name.empty()) {
      auto container = vm.instantiate(man.application_name);
      if (vm.has_method(container, on_create)) {
        (void)vm.call_method(container, on_create);
      }
    }

    // 2. Launch the main activity.
    auto activity = vm.instantiate(launcher->name);
    if (vm.has_method(activity, on_create)) {
      (void)vm.call_method(activity, on_create);
    }

    // 3. Instantiate secondary components once so their entry points are
    //    reachable by later events.
    std::vector<ObjRef> services;
    std::vector<ObjRef> receivers;
    for (const auto& comp : man.components) {
      if (comp.name == launcher->name) continue;
      switch (comp.kind) {
        case ComponentKind::Service:
          services.push_back(vm.instantiate(comp.name));
          break;
        case ComponentKind::Receiver:
          receivers.push_back(vm.instantiate(comp.name));
          break;
        default:
          break;
      }
    }

    // 4. Fuzz loop.
    for (int i = 0; i < config.num_events; ++i) {
      const auto roll = rng.below(100);
      if (roll < 60) {
        if (vm.has_method(activity, on_click)) {
          const Value view_id(static_cast<std::int64_t>(
              rng.below(static_cast<std::uint64_t>(config.num_view_ids))));
          (void)vm.call_method(activity, on_click, {&view_id, 1});
        }
      } else if (roll < 70) {
        if (vm.has_method(activity, on_resume)) {
          (void)vm.call_method(activity, on_resume);
        }
      } else if (roll < 80) {
        if (vm.has_method(activity, on_pause)) {
          (void)vm.call_method(activity, on_pause);
        }
      } else if (roll < 90 && !services.empty()) {
        const auto svc = services[rng.below(services.size())];
        if (vm.has_method(svc, on_start_command)) {
          (void)vm.call_method(svc, on_start_command);
        }
      } else if (!receivers.empty()) {
        const auto rcv = receivers[rng.below(receivers.size())];
        if (vm.has_method(rcv, on_receive)) {
          (void)vm.call_method(rcv, on_receive);
        }
      }
      ++result.events_delivered;
    }
  } catch (const VmException& e) {
    result.outcome = Outcome::kCrash;
    result.crash_message = e.what();
    return result;
  }

  result.outcome = Outcome::kExercised;
  return result;
}

}  // namespace dydroid::monkey
