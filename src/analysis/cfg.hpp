// Control-flow graphs over SimDex method bodies. Shared by MiniDroidNative's
// annotated CFGs and by the taint analysis.
#pragma once

#include <cstddef>
#include <vector>

#include "dex/dexfile.hpp"

namespace dydroid::analysis {

struct BasicBlock {
  std::size_t begin = 0;  // first instruction index (inclusive)
  std::size_t end = 0;    // one past last instruction (exclusive)
  std::vector<std::size_t> successors;  // block indices
};

struct Cfg {
  std::vector<BasicBlock> blocks;
};

/// Build the CFG of a method. Leaders: entry, branch targets, fall-throughs
/// after branches/terminators.
Cfg build_cfg(const dex::Method& method);

}  // namespace dydroid::analysis
