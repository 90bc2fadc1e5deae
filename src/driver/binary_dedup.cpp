#include "driver/binary_dedup.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace dydroid::driver {

namespace {

/// Write one payload content-addressed into an existing directory.
/// Best-effort: a write failure costs the blob, not the run.
bool persist_blob(const std::filesystem::path& path,
                  std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "dedup: short write persisting %s\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

void BinaryDedupStore::absorb(std::span<const core::BinaryReport> binaries) {
  for (const core::BinaryReport& binary : binaries) {
    const core::InterceptedBinary& payload = binary.binary;
    ++stats_.total;
    stats_.total_bytes += payload.bytes.size();
    auto [it, fresh] = counts_.emplace(payload.digest, 0);
    ++it->second;
    if (it->second > stats_.max_reuse) stats_.max_reuse = it->second;
    if (!fresh) continue;
    ++stats_.unique;
    stats_.unique_bytes += payload.bytes.size();
    if (payload.kind == core::CodeKind::Dex) {
      ++stats_.unique_dex;
    } else {
      ++stats_.unique_native;
    }
    if (!blob_dir_ready()) continue;
    // Blobs are immutable, so a listed file is already the payload (equal
    // digest, equal bytes) and is never rewritten.
    const std::string name = payload.digest.hex() + ".bin";
    if (stored_.contains(name)) continue;
    if (persist_blob(std::filesystem::path(blob_dir_) / name,
                     payload.bytes.span())) {
      ++stats_.blobs_written;
    }
  }
}

bool BinaryDedupStore::blob_dir_ready() {
  if (blob_dir_.empty()) return false;
  if (!blob_dir_made_) {
    std::error_code ec;
    std::filesystem::create_directories(blob_dir_, ec);
    if (ec) {
      // Best-effort like every blob write: say so once and persist nothing
      // more, instead of failing the same mkdir for every unique payload.
      std::fprintf(stderr, "dedup: cannot create blob dir %s: %s\n",
                   blob_dir_.c_str(), ec.message().c_str());
      blob_dir_.clear();
      return false;
    }
    // One listing instead of one stat per unique payload. An unreadable
    // listing leaves the set short, which only costs rewrites of equal
    // bytes.
    for (std::filesystem::directory_iterator it(blob_dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
      stored_.insert(it->path().filename().string());
    }
    blob_dir_made_ = true;
  }
  return true;
}

}  // namespace dydroid::driver
