#include "analysis/cfg.hpp"

#include <algorithm>
#include <set>

namespace dydroid::analysis {

using dex::Op;

Cfg build_cfg(const dex::Method& method) {
  Cfg cfg;
  const auto& code = method.code;
  if (code.empty()) return cfg;

  std::set<std::size_t> leaders;
  leaders.insert(0);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const auto& ins = code[pc];
    if (ins.has_target()) {
      leaders.insert(static_cast<std::size_t>(ins.target));
      if (pc + 1 < code.size()) leaders.insert(pc + 1);
    } else if (ins.is_terminator() && pc + 1 < code.size()) {
      leaders.insert(pc + 1);
    }
  }

  std::vector<std::size_t> starts(leaders.begin(), leaders.end());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    BasicBlock block;
    block.begin = starts[i];
    block.end = (i + 1 < starts.size()) ? starts[i + 1] : code.size();
    cfg.blocks.push_back(block);
  }

  auto block_index = [&](std::size_t pc) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), pc);
    return static_cast<std::size_t>(it - starts.begin()) - 1;
  };

  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    auto& block = cfg.blocks[i];
    const auto& last = code[block.end - 1];
    switch (last.op) {
      case Op::Goto:
        block.successors.push_back(
            block_index(static_cast<std::size_t>(last.target)));
        break;
      case Op::IfEqz:
      case Op::IfNez:
      case Op::TryEnter:  // handler edge + fall-through
        block.successors.push_back(
            block_index(static_cast<std::size_t>(last.target)));
        if (block.end < code.size()) {
          block.successors.push_back(block_index(block.end));
        }
        break;
      case Op::Return:
      case Op::ReturnVoid:
      case Op::Throw:
        break;  // no successors
      default:
        if (block.end < code.size()) {
          block.successors.push_back(block_index(block.end));
        }
        break;
    }
    // Deduplicate (both branch arms can land on the same block).
    std::sort(block.successors.begin(), block.successors.end());
    block.successors.erase(
        std::unique(block.successors.begin(), block.successors.end()),
        block.successors.end());
  }
  return cfg;
}

}  // namespace dydroid::analysis
