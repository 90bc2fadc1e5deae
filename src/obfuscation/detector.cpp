#include "obfuscation/detector.hpp"

#include "obfuscation/language_db.hpp"
#include "obfuscation/lexical.hpp"
#include "support/strings.hpp"

namespace dydroid::obfuscation {
namespace {

/// Class-loader instantiation inside a given class body.
bool instantiates_class_loader(const dex::DexFile& dex,
                               const dex::ClassDef& cls) {
  for (const auto& m : cls.methods) {
    for (const auto& ins : m.code) {
      if (ins.op != dex::Op::NewInstance && !ins.is_invoke()) continue;
      const auto& target = dex.string_at(ins.cls);
      if (target == "dalvik.system.DexClassLoader" ||
          target == "dalvik.system.PathClassLoader") {
        return true;
      }
    }
  }
  return false;
}

bool calls_jni_load(const dex::DexFile& dex, const dex::ClassDef& cls) {
  for (const auto& m : cls.methods) {
    for (const auto& ins : m.code) {
      if (!ins.is_invoke()) continue;
      const auto& target_cls = dex.string_at(ins.cls);
      const auto& target = dex.string_at(ins.name);
      if ((target_cls == "java.lang.System" ||
           target_cls == "java.lang.Runtime") &&
          (target == "load" || target == "loadLibrary" || target == "load0")) {
        return true;
      }
    }
  }
  return false;
}

bool has_bundled_native_lib(const analysis::Ir& ir) {
  for (const auto& name : ir.entries) {
    if (name.starts_with(apk::kLibDirPrefix) && name.ends_with(".so")) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool detect_lexical(const analysis::Ir& ir) {
  if (ir.classes_dex == nullptr) return false;
  const auto& dex = *ir.classes_dex;
  double ratio_sum = 0;
  std::size_t identifiers = 0;
  auto consider = [&](const std::string& identifier) {
    ratio_sum += dictionary_ratio(identifier);
    ++identifiers;
  };
  for (const auto& cls : dex.classes()) {
    const auto dot = cls.name.rfind('.');
    consider(dot == std::string::npos ? cls.name : cls.name.substr(dot + 1));
    for (const auto& f : cls.instance_fields) consider(f);
    for (const auto& f : cls.static_fields) consider(f);
    for (const auto& m : cls.methods) {
      if (lifecycle_methods().count(m.name) != 0) continue;  // kept names
      consider(m.name);
    }
  }
  if (identifiers == 0) return false;
  return (ratio_sum / static_cast<double>(identifiers)) < kLexicalThreshold;
}

bool detect_reflection(const dex::DexFile& dex) {
  for (const auto& cls : dex.classes()) {
    for (const auto& m : cls.methods) {
      for (const auto& ins : m.code) {
        if (!ins.is_invoke()) continue;
        if (dex.string_at(ins.cls).starts_with("java.lang.reflect")) {
          return true;
        }
      }
    }
  }
  return false;
}

bool detect_native(const analysis::Ir& ir) {
  if (has_bundled_native_lib(ir)) return true;
  if (ir.classes_dex == nullptr) return false;
  const auto& dex = *ir.classes_dex;
  for (const auto& cls : dex.classes()) {
    if (calls_jni_load(dex, cls)) return true;
    for (const auto& m : cls.methods) {
      if (m.is_native()) return true;
    }
  }
  return false;
}

bool detect_dex_encryption(const analysis::Ir& ir) {
  if (ir.classes_dex == nullptr) return false;
  const auto& dex = *ir.classes_dex;

  // Rule 1: android:name declares an application container present in the
  // decompiled code that instantiates a class loader.
  if (ir.manifest.application_name.empty()) return false;
  const auto* container = dex.find_class(ir.manifest.application_name);
  if (container == nullptr) return false;
  if (!instantiates_class_loader(dex, *container)) return false;

  // Rule 2: some declared components are missing from the decompiled code,
  // and a locally packed file can store bytecode.
  bool component_missing = false;
  for (const auto& comp : ir.manifest.components) {
    if (dex.find_class(comp.name) == nullptr) {
      component_missing = true;
      break;
    }
  }
  if (!component_missing) return false;
  if (!analysis::has_local_bytecode_store(ir)) return false;

  // Rule 3: the container decrypts via JNI-loaded native code (a local .so
  // plus a JNI load call in the container).
  if (!calls_jni_load(dex, *container)) return false;
  if (!has_bundled_native_lib(ir)) return false;

  return true;
}

ObfuscationReport analyze_obfuscation(const analysis::Ir& ir) {
  ObfuscationReport report;
  report.lexical = detect_lexical(ir);
  report.reflection =
      ir.classes_dex != nullptr && detect_reflection(*ir.classes_dex);
  report.native_code = detect_native(ir);
  report.dex_encryption = detect_dex_encryption(ir);
  return report;
}

}  // namespace dydroid::obfuscation
