#include "apk/apk.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/trace.hpp"

namespace dydroid::apk {

using support::Blob;
using support::Bytes;
using support::ParseError;

void ApkFile::put(std::string_view path, Blob data) {
  Entry e;
  e.stored_crc = support::crc32(data);
  e.data = std::move(data);
  entries_.insert_or_assign(std::string(path), std::move(e));
}

void ApkFile::put(std::string_view path, Bytes data) {
  put(path, Blob::take(std::move(data)));
}

void ApkFile::put(std::string_view path, std::string_view text) {
  put(path, Blob::of_string(text));
}

void ApkFile::put_with_bad_crc(std::string_view path, Bytes data) {
  Entry e;
  e.stored_crc = support::crc32(data) ^ 0xdeadbeefu;
  e.data = Blob::take(std::move(data));
  entries_.insert_or_assign(std::string(path), std::move(e));
}

bool ApkFile::remove(std::string_view path) {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

std::optional<Blob> ApkFile::get(std::string_view path) const {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return it->second.data;
}

std::vector<std::string> ApkFile::entry_names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

manifest::Manifest ApkFile::read_manifest() const {
  const auto data = get(kManifestEntry);
  if (!data) throw ParseError("apk: no AndroidManifest.xml");
  return manifest::Manifest::from_text(support::as_chars(*data));
}

void ApkFile::write_manifest(const manifest::Manifest& m) {
  put(kManifestEntry, m.to_text());
}

std::optional<dex::DexFile> ApkFile::read_classes_dex() const {
  const auto data = get(kClassesDexEntry);
  if (!data) return std::nullopt;
  return dex::DexFile::deserialize(*data);
}

void ApkFile::write_classes_dex(const dex::DexFile& dex) {
  put(kClassesDexEntry, dex.serialize());
}

std::uint64_t ApkFile::content_hash() const {
  std::uint64_t h = 0;
  for (const auto& [name, entry] : entries_) {
    h = support::hash_combine(h, support::fnv1a64(name));
    h = support::hash_combine(h, support::fnv1a64(entry.data));
  }
  return h;
}

void ApkFile::sign(std::string_view signer_key) {
  signer_ = std::string(signer_key);
  signature_ =
      support::hash_combine(content_hash(), support::fnv1a64(signer_key));
}

std::optional<std::string> ApkFile::first_crc_mismatch() const {
  // Table order here equals stream order for any container produced by
  // serialize(), so the first mismatch matches what a strict re-parse of
  // the serialized bytes would trip on.
  for (const auto& [name, entry] : entries_) {
    if (entry.stored_crc != support::crc32(entry.data)) return name;
  }
  return std::nullopt;
}

Bytes ApkFile::serialize() const {
  support::ByteWriter w;
  w.raw(support::to_bytes(kMagic));
  w.str(signer_);
  w.u64(signature_);
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [name, entry] : entries_) {
    w.str(name);
    w.u32(entry.stored_crc);
    w.blob(entry.data);
  }
  return w.take();
}

ApkFile ApkFile::deserialize(Blob data, ParseMode mode) {
  // Fault-injection site: a truncated/corrupt container observed in the
  // wild (support::FaultInjector, docs/FAULTS.md).
  if (support::fault_fire(support::FaultSite::kApkDeserialize)) {
    throw ParseError(support::fault_message(support::FaultSite::kApkDeserialize));
  }
  support::ByteReader r(data);
  if (support::as_chars(r.view(kMagic.size())) != kMagic) {
    throw ParseError("bad SimApk magic");
  }
  ApkFile apk;
  apk.signer_ = r.str();
  apk.signature_ = r.u64();
  const auto n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto name = r.str();
    Entry e;
    e.stored_crc = r.u32();
    const auto len = r.u32();
    const auto off = r.position();
    r.view(len);  // bounds-check + advance; the bytes stay in `data`
    e.data = data.slice(off, len);
    if (mode == ParseMode::kStrict &&
        e.stored_crc != support::crc32(e.data)) {
      throw ParseError("apk entry CRC mismatch: " + name);
    }
    apk.entries_.insert_or_assign(name, std::move(e));
  }
  return apk;
}

ApkFile ApkFile::deserialize(std::span<const std::uint8_t> data,
                             ParseMode mode) {
  return deserialize(Blob::copy_of(data), mode);
}

ApkImage ApkImage::parse(Blob bytes, ParseMode mode) {
  support::count("pipeline.parses", 1);
  auto file = std::make_shared<const ApkFile>(ApkFile::deserialize(bytes, mode));
  return ApkImage(std::move(file), std::move(bytes));
}

ApkImage ApkImage::from_file(ApkFile file) {
  auto bytes = Blob::take(file.serialize());
  support::count("pipeline.bytes_copied", bytes.size());
  return ApkImage(std::make_shared<const ApkFile>(std::move(file)),
                  std::move(bytes));
}

bool looks_like_apk(std::span<const std::uint8_t> data) {
  const auto magic = ApkFile::kMagic;
  if (data.size() < magic.size()) return false;
  return std::equal(magic.begin(), magic.end(), data.begin(),
                    [](char c, std::uint8_t b) {
                      return static_cast<std::uint8_t>(c) == b;
                    });
}

}  // namespace dydroid::apk
