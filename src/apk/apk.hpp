// SimApk: the installation-package analogue (zip + manifest + classes.dex +
// assets + native libs + signature).
//
// Two parse modes mirror the real ecosystem: the *device* (VM installer) is
// lenient about per-entry CRC mismatches, exactly as Android's zip handling
// tolerates quirks that break third-party tools; the *tooling* (unpacker /
// repacker) is strict and throws. Anti-repackaging packers plant a
// CRC-mismatched trap entry to crash apktool while the app still installs —
// the paper's Table II "Rewriting failure" rows.
//
// Ownership model (docs/FORMATS.md, "Buffer ownership & zero-copy views"):
// entries are support::Blob views. Parsing a container from a Blob keeps the
// source buffer alive once and stores every entry as an aliasing slice of it
// — the file table is an index, not a copy. ApkImage pairs one parsed index
// with the serialized Blob it views, so downstream layers (rewriter,
// installer, VM, report codecs) can share a single parse.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dex/dexfile.hpp"
#include "manifest/manifest.hpp"
#include "support/blob.hpp"
#include "support/bytes.hpp"

namespace dydroid::apk {

/// Well-known entry paths.
inline constexpr std::string_view kManifestEntry = "AndroidManifest.xml";
inline constexpr std::string_view kClassesDexEntry = "classes.dex";
inline constexpr std::string_view kLibDirPrefix = "lib/";
inline constexpr std::string_view kAssetsDirPrefix = "assets/";

enum class ParseMode {
  kLenient,  // device install: CRC mismatches ignored
  kStrict,   // tooling (unpacker/repacker): CRC mismatches throw
};

class ApkFile {
 public:
  /// Add or replace an entry. The stored CRC is computed from the data.
  void put(std::string_view path, support::Blob data);
  void put(std::string_view path, support::Bytes data);
  void put(std::string_view path, std::string_view text);
  /// Add an entry whose *stored* CRC deliberately mismatches its data — the
  /// anti-repackaging trap (valid on-device, fatal for strict tooling).
  void put_with_bad_crc(std::string_view path, support::Bytes data);
  /// Remove an entry; returns false if absent.
  bool remove(std::string_view path);

  /// The entry's bytes as a refcounted view (cheap copy), or nullopt if
  /// absent. The view stays valid after the ApkFile is destroyed.
  [[nodiscard]] std::optional<support::Blob> get(std::string_view path) const;
  [[nodiscard]] std::vector<std::string> entry_names() const;
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  /// Convenience: the manifest entry, parsed. Throws if absent/malformed.
  [[nodiscard]] manifest::Manifest read_manifest() const;
  void write_manifest(const manifest::Manifest& m);

  /// Convenience: classes.dex, parsed. Nullopt if the entry is absent.
  [[nodiscard]] std::optional<dex::DexFile> read_classes_dex() const;
  void write_classes_dex(const dex::DexFile& dex);

  /// Sign with a developer key string (hash-based signature over entries).
  void sign(std::string_view signer_key);
  [[nodiscard]] const std::string& signer() const { return signer_; }

  /// Name of the first entry (in table order) whose stored CRC mismatches
  /// its content, or nullopt when the container is clean. The cheap
  /// index-level equivalent of a strict re-parse.
  [[nodiscard]] std::optional<std::string> first_crc_mismatch() const;

  [[nodiscard]] support::Bytes serialize() const;
  /// Parse from an owned Blob: every entry becomes a zero-copy slice of
  /// `data`, which stays alive for as long as any entry view does.
  static ApkFile deserialize(support::Blob data,
                             ParseMode mode = ParseMode::kLenient);
  /// Parse from a borrowed span (copies into a fresh buffer first).
  static ApkFile deserialize(std::span<const std::uint8_t> data,
                             ParseMode mode = ParseMode::kLenient);

  static constexpr std::string_view kMagic = "SAPK1";

 private:
  struct Entry {
    support::Blob data;
    std::uint32_t stored_crc = 0;
  };
  [[nodiscard]] std::uint64_t content_hash() const;

  std::map<std::string, Entry, std::less<>> entries_;
  std::string signer_;
  std::uint64_t signature_ = 0;
};

/// One APK, parsed once: an immutable parsed index (ApkFile) paired with the
/// serialized Blob it was parsed from. Copying an ApkImage is two refcount
/// bumps; every pipeline layer (static analysis, rewriter, installer, VM)
/// shares the same parse instead of re-deserializing the container.
class ApkImage {
 public:
  /// Invalid image (no parse attached). valid() == false.
  ApkImage() = default;

  /// Parse `bytes` once and attach the result. This is the pipeline's
  /// subject-app parse point and feeds the `pipeline.parses` counter.
  /// Throws ParseError exactly as ApkFile::deserialize would.
  static ApkImage parse(support::Blob bytes,
                        ParseMode mode = ParseMode::kLenient);
  /// Build an image from an already-parsed file by serializing it once
  /// (the rewriter's repack path).
  static ApkImage from_file(ApkFile file);

  [[nodiscard]] bool valid() const { return file_ != nullptr; }
  /// The parsed index. Precondition: valid().
  [[nodiscard]] const ApkFile& file() const { return *file_; }
  /// The serialized container the index views.
  [[nodiscard]] const support::Blob& bytes() const { return bytes_; }

 private:
  ApkImage(std::shared_ptr<const ApkFile> file, support::Blob bytes)
      : file_(std::move(file)), bytes_(std::move(bytes)) {}

  std::shared_ptr<const ApkFile> file_;
  support::Blob bytes_;
};

/// True if `data` begins with the SimApk magic.
bool looks_like_apk(std::span<const std::uint8_t> data);

}  // namespace dydroid::apk
