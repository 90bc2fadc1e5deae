#include "vm/value.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>

namespace dydroid::vm {

std::int64_t Value::as_int() const {
  if (is_null()) return 0;
  if (is_int()) return payload_.i;
  throw std::runtime_error("value is not an int: " + display());
}

const std::string& Value::as_str() const {
  if (is_str()) return *payload_.str;
  throw std::runtime_error("value is not a string: " + display());
}

ObjRef Value::as_obj() const {
  if (is_obj()) return payload_.obj;
  throw std::runtime_error("value is not an object: " + display());
}

std::string Value::display() const {
  switch (tag_) {
    case Tag::Null: return "null";
    case Tag::Int: return std::to_string(payload_.i);
    case Tag::Str: return *payload_.str;
    case Tag::Obj: break;
  }
  std::string out(payload_.obj->class_name());
  out += '@';
  out += std::to_string(payload_.obj->id());
  return out;
}

bool Value::equals(const Value& other) const {
  if (tag_ != other.tag_) return false;
  switch (tag_) {
    case Tag::Null: return true;
    case Tag::Int: return payload_.i == other.payload_.i;
    case Tag::Str:
      return payload_.str == other.payload_.str ||
             *payload_.str == *other.payload_.str;
    case Tag::Obj: return payload_.obj == other.payload_.obj;
  }
  return false;
}

bool Value::truthy() const {
  switch (tag_) {
    case Tag::Null: return false;
    case Tag::Int: return payload_.i != 0;
    case Tag::Str: return !payload_.str->empty();
    case Tag::Obj: return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// NameTable
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNameChunk = 2048;  // bytes of name characters

std::size_t hash_of(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

}  // namespace

NameTable::NameTable() : slots_(64, 0) {
  views_.reserve(32);
  views_.emplace_back();  // id 0: no name
}

Name NameTable::intern(std::string_view s) {
  // Keep the load factor at or below one half, so probes stay short.
  if (2 * views_.size() >= slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_of(s) & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = slots_[i];
    if (id == 0) {
      views_.push_back(keep(s));
      slots_[i] = static_cast<std::uint32_t>(views_.size() - 1);
      return Name{slots_[i]};
    }
    if (views_[id] == s) return Name{id};
  }
}

void NameTable::grow() {
  slots_.assign(slots_.size() * 2, 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 1; id < views_.size(); ++id) {
    std::size_t i = hash_of(views_[id]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

std::string_view NameTable::keep(std::string_view s) {
  if (s.size() > room_) {
    room_ = std::max(kNameChunk, s.size());
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(room_));
    cursor_ = chunks_.back().get();
  }
  if (!s.empty()) std::memcpy(cursor_, s.data(), s.size());
  const std::string_view kept(cursor_, s.size());
  cursor_ += s.size();
  room_ -= s.size();
  return kept;
}

}  // namespace dydroid::vm
