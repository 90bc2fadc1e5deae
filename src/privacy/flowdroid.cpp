#include "privacy/flowdroid.hpp"

#include <algorithm>

#include "analysis/cfg.hpp"
#include <map>
#include <set>

namespace dydroid::privacy {

namespace {

/// Analysis-wide mutable state shared across methods.
struct Global {
  const dex::DexFile* dex = nullptr;
  std::map<std::string, TaintMask> field_taint;          // field name -> mask
  std::map<const dex::Method*, TaintMask> return_taint;  // method -> mask
  std::map<const dex::Method*, std::vector<TaintMask>> param_taint;
  std::set<std::tuple<std::string, std::string, std::string, TaintMask>>
      leak_keys;  // dedupe
  std::vector<Leak> leaks;
  bool changed = false;

  TaintMask& ret(const dex::Method* m) { return return_taint[m]; }
  std::vector<TaintMask>& params(const dex::Method* m) {
    auto& v = param_taint[m];
    if (v.size() < m->num_params) v.resize(m->num_params, 0);
    return v;
  }
  void merge_ret(const dex::Method* m, TaintMask mask) {
    auto& r = ret(m);
    if ((r | mask) != r) {
      r |= mask;
      changed = true;
    }
  }
  void merge_param(const dex::Method* m, std::size_t i, TaintMask mask) {
    auto& v = params(m);
    if (i < v.size() && (v[i] | mask) != v[i]) {
      v[i] |= mask;
      changed = true;
    }
  }
  void merge_field(const std::string& name, TaintMask mask) {
    auto& f = field_taint[name];
    if ((f | mask) != f) {
      f |= mask;
      changed = true;
    }
  }
  void record_leak(const dex::ClassDef& cls, const dex::Method& method,
                   const std::string& sink, TaintMask mask) {
    if (mask == 0) return;
    const auto key = std::make_tuple(cls.name, method.name, sink, mask);
    if (!leak_keys.insert(key).second) return;
    changed = true;
    for (const auto type : types_in(mask)) {
      leaks.push_back(Leak{type, sink, cls.name, method.name});
    }
  }
};

/// Resolve an app-defined callee (class + method) or null for framework.
const dex::Method* resolve_app_callee(const dex::DexFile& dex,
                                      const std::string& cls,
                                      const std::string& method) {
  const auto* def = dex.find_class(cls);
  if (def == nullptr) return nullptr;
  return def->find_method(method);
}

/// Flow-sensitive abstract interpretation over the method's CFG: per-block
/// entry states, strong updates on register writes, joins at merge points —
/// so overwrites kill taint while loop-carried taint converges through the
/// back-edge worklist.
void analyze_method(Global& g, const dex::ClassDef& cls,
                    const dex::Method& method) {
  const auto& dex = *g.dex;
  const auto cfg = analysis::build_cfg(method);
  if (cfg.blocks.empty()) return;

  // Pre-pass: resolve the content URI reaching each ContentResolver.query
  // call site (linear constant tracking; generated and real call sites pass
  // a fresh string constant).
  std::vector<std::string> uri_at(method.code.size());
  {
    std::vector<std::string> last(method.num_registers);
    for (std::size_t pc = 0; pc < method.code.size(); ++pc) {
      const auto& ins = method.code[pc];
      if (ins.op == dex::Op::ConstStr) {
        last[ins.a] = dex.string_at(ins.name);
      } else if (ins.op == dex::Op::Move) {
        last[ins.a] = last[ins.b];
      } else if (ins.is_invoke() && ins.argc >= 1 &&
                 dex.string_at(ins.cls) == "android.content.ContentResolver" &&
                 dex.string_at(ins.name) == "query") {
        uri_at[pc] = last[ins.args[0]];
      }
    }
  }

  // State: one mask per register plus a pseudo-register for the pending
  // invoke result (index num_registers).
  const std::size_t width = method.num_registers + 1u;
  const std::size_t result_slot = method.num_registers;
  std::vector<std::vector<TaintMask>> entry(cfg.blocks.size(),
                                            std::vector<TaintMask>(width, 0));
  {
    const auto& params = g.params(&method);
    for (std::size_t i = 0; i < params.size() && i < width - 1; ++i) {
      entry[0][i] = params[i];
    }
  }

  std::vector<std::size_t> worklist{0};
  std::vector<bool> queued(cfg.blocks.size(), false);
  std::vector<bool> visited(cfg.blocks.size(), false);
  queued[0] = true;
  int budget = static_cast<int>(cfg.blocks.size()) * 64 + 64;
  while (!worklist.empty() && budget-- > 0) {
    const auto bi = worklist.back();
    worklist.pop_back();
    queued[bi] = false;
    visited[bi] = true;
    auto state = entry[bi];

    for (std::size_t pc = cfg.blocks[bi].begin; pc < cfg.blocks[bi].end;
         ++pc) {
      const auto& ins = method.code[pc];
      using dex::Op;
      switch (ins.op) {
        case Op::ConstInt:
        case Op::ConstStr:
          state[ins.a] = 0;  // strong update
          break;
        case Op::Move:
          state[ins.a] = state[ins.b];
          break;
        case Op::MoveResult:
          state[ins.a] = state[result_slot];
          break;
        case Op::Add:
        case Op::Sub:
        case Op::Mul:
        case Op::Div:
        case Op::Rem:
        case Op::Concat:
        case Op::CmpEq:
        case Op::CmpLt:
          state[ins.a] = state[ins.b] | state[ins.c];
          break;
        case Op::IGet:
        case Op::SGet:
          state[ins.a] = g.field_taint[dex.string_at(ins.name)];
          break;
        case Op::IPut:
        case Op::SPut:
          g.merge_field(dex.string_at(ins.name), state[ins.a]);
          break;
        case Op::InvokeStatic:
        case Op::InvokeVirtual: {
          const auto& callee_cls = dex.string_at(ins.cls);
          const auto& callee_name = dex.string_at(ins.name);
          TaintMask args_mask = 0;
          for (std::uint8_t i = 0; i < ins.argc; ++i) {
            args_mask |= state[ins.args[i]];
          }
          if (const auto src = source_api(callee_cls, callee_name)) {
            state[result_slot] = mask_of(*src);
          } else if (callee_cls == "android.content.ContentResolver" &&
                     callee_name == "query") {
            const auto src = source_uri(uri_at[pc]);
            state[result_slot] = src ? mask_of(*src) : 0;
          } else if (is_sink_api(callee_cls, callee_name)) {
            g.record_leak(cls, method, callee_cls + "." + callee_name,
                          args_mask);
            state[result_slot] = 0;
          } else if (const auto* callee = resolve_app_callee(dex, callee_cls,
                                                             callee_name)) {
            for (std::uint8_t i = 0; i < ins.argc; ++i) {
              g.merge_param(callee, i, state[ins.args[i]]);
            }
            state[result_slot] = g.ret(callee);
          } else {
            // Unknown framework call: conservative pass-through.
            state[result_slot] = args_mask;
          }
          break;
        }
        case Op::Return:
          g.merge_ret(&method, state[ins.a]);
          break;
        case Op::TryEnter:
          state[ins.a] = 0;  // handler receives a fresh message string
          break;
        default:
          break;
      }
    }

    for (const auto succ : cfg.blocks[bi].successors) {
      bool changed = false;
      for (std::size_t r = 0; r < width; ++r) {
        const auto joined = entry[succ][r] | state[r];
        if (joined != entry[succ][r]) {
          entry[succ][r] = joined;
          changed = true;
        }
      }
      if ((changed || !visited[succ]) && !queued[succ]) {
        queued[succ] = true;
        worklist.push_back(succ);
      }
    }
  }
}

}  // namespace

TaintMask PrivacyReport::leaked_mask() const {
  TaintMask mask = 0;
  for (const auto& l : leaks) mask |= mask_of(l.type);
  return mask;
}

PrivacyReport analyze_privacy(const dex::DexFile& dex) {
  Global g;
  g.dex = &dex;
  // Outer fixpoint: every method is an entry point; inter-procedural state
  // (fields, returns, params) grows monotonically.
  for (int round = 0; round < 12; ++round) {
    g.changed = false;
    for (const auto& cls : dex.classes()) {
      for (const auto& method : cls.methods) {
        if (method.code.empty()) continue;
        analyze_method(g, cls, method);
      }
    }
    if (!g.changed) break;
  }
  PrivacyReport report;
  report.leaks = std::move(g.leaks);
  return report;
}

}  // namespace dydroid::privacy
