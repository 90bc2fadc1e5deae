// Obfuscation analysis (paper §III-D): classifies which anti-reverse-
// engineering techniques an app uses, from the decompiled IR alone.
//
//   - lexical: identifier words vs. the language database
//   - reflection: presence of java.lang.reflect APIs
//   - native code: bundled .so libraries / JNI load calls (static view;
//     Table VI's dynamic confirmation comes from the pipeline)
//   - DEX encryption: the three-container-pattern rules of §III-D
//   - anti-decompilation: the decompiler fails on the app
#pragma once

#include <optional>

#include "analysis/decompiler.hpp"

namespace dydroid::obfuscation {

struct ObfuscationReport {
  bool lexical = false;
  bool reflection = false;
  bool native_code = false;
  bool dex_encryption = false;
  bool anti_decompilation = false;
};

/// Identifier-dictionary ratio below which an app counts as lexically
/// obfuscated.
inline constexpr double kLexicalThreshold = 0.5;

/// Analyze a decompiled app. Leaves anti_decompilation false: an app the
/// decompiler rejects never reaches here, and core::StaticStage sets that
/// flag alone.
ObfuscationReport analyze_obfuscation(const analysis::Ir& ir);

/// Rule helpers, exposed for tests and ablations.
bool detect_lexical(const analysis::Ir& ir);
bool detect_reflection(const dex::DexFile& dex);
bool detect_native(const analysis::Ir& ir);
bool detect_dex_encryption(const analysis::Ir& ir);

}  // namespace dydroid::obfuscation
