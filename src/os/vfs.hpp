// Virtual filesystem with Android path & permission semantics.
//
// Layout mirrors the measurement device in the paper:
//   /system/lib/...              OS-vendor native libraries (trusted)
//   /data/app/<pkg>.apk          installed packages
//   /data/data/<pkg>/...         per-app private internal storage
//   /mnt/sdcard/...              shared external storage
//
// Writability rules implement the vulnerability model of §III-B(b):
//   - internal storage is writable only by its owning app,
//   - external storage is writable by ANY app before Android 4.4 (API 19),
//     and by apps holding WRITE_EXTERNAL_STORAGE from 4.4 on.
// Reads are unrestricted (pre-scoped-storage world-readable files), which is
// precisely what makes "load from another app's internal storage" possible.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/blob.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dydroid::os {

/// Canonical path prefixes.
std::string internal_storage_dir(std::string_view pkg);  // /data/data/<pkg>
inline constexpr std::string_view kExternalStorageDir = "/mnt/sdcard";
inline constexpr std::string_view kSystemLibDir = "/system/lib";
inline constexpr std::string_view kAppDir = "/data/app";

/// Principal performing a filesystem operation.
struct Principal {
  std::string pkg;                  // "" = the system itself
  bool has_write_external = false;  // holds WRITE_EXTERNAL_STORAGE

  [[nodiscard]] bool is_system() const { return pkg.empty(); }
  static Principal system() { return Principal{}; }
};

/// Classification of a path by who may write it (used by the vulnerability
/// analyzer and by write permission checks).
enum class PathDomain {
  kSystem,            // /system/...
  kAppPrivate,        // /data/data/<pkg>/... (owner in `owner`)
  kExternalStorage,   // /mnt/sdcard/...
  kOther,             // anything else (e.g. /data/app, /tmp)
};

struct PathInfo {
  PathDomain domain = PathDomain::kOther;
  std::string owner;  // package owning an app-private path
};

/// Classify a path. Paths must be absolute.
PathInfo classify_path(std::string_view path);

class Vfs {
 public:
  /// `os_api_level` drives the external-storage writability rule.
  /// `capacity_bytes` = 0 means unlimited.
  explicit Vfs(int os_api_level = 18, std::uint64_t capacity_bytes = 0)
      : api_level_(os_api_level), capacity_(capacity_bytes) {}

  [[nodiscard]] int api_level() const { return api_level_; }

  /// Write (create or truncate). Fails on permission or capacity. Files are
  /// stored as immutable Blobs: a write replaces the whole buffer, it never
  /// mutates in place, so views handed out by read_file() are snapshots.
  support::Status write_file(const Principal& who, std::string_view path,
                             support::Blob data);
  support::Status write_file(const Principal& who, std::string_view path,
                             support::Bytes data);
  /// A refcounted view of the file's current contents, or nullopt if absent.
  /// The view stays valid — and keeps reflecting the contents at read time —
  /// even if the file is later overwritten or deleted.
  [[nodiscard]] std::optional<support::Blob> read_file(
      std::string_view path) const;
  [[nodiscard]] bool exists(std::string_view path) const;
  support::Status delete_file(const Principal& who, std::string_view path);
  support::Status rename(const Principal& who, std::string_view from,
                         std::string_view to);

  /// Whether `who` may write `path` under the current API level.
  [[nodiscard]] bool can_write(const Principal& who,
                               std::string_view path) const;

  /// All file paths under a directory prefix (inclusive of nested dirs).
  [[nodiscard]] std::vector<std::string> list_dir(
      std::string_view dir_prefix) const;

  [[nodiscard]] std::uint64_t used_bytes() const { return used_; }
  [[nodiscard]] std::uint64_t capacity_bytes() const { return capacity_; }

 private:
  int api_level_;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::map<std::string, support::Blob, std::less<>> files_;
};

}  // namespace dydroid::os
