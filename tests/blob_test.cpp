// Blob ownership primitive (docs/FORMATS.md, "Buffer ownership & zero-copy
// views"): refcount semantics, aliasing slices, lifetime extension, and the
// VFS snapshot guarantee that read views never dangle. The lifetime cases
// here are the ones AddressSanitizer turns from "happens to work" into hard
// failures — run them under `tools/run_sanitizer_matrix.sh asan` after any
// change to Blob or the VFS storage model.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "os/vfs.hpp"
#include "support/blob.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dydroid {
namespace {

using support::Blob;
using support::Bytes;

Bytes sample_bytes() {
  Bytes out;
  for (int i = 0; i < 64; ++i) out.push_back(static_cast<std::uint8_t>(i));
  return out;
}

TEST(Blob, DefaultIsEmpty) {
  const Blob b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.span().empty());
  EXPECT_EQ(b, Blob{});
}

TEST(Blob, CopyOfDuplicatesTheBytes) {
  const auto src = sample_bytes();
  const auto b = Blob::copy_of(src);
  EXPECT_EQ(b, src);
  // Two independent copies own distinct buffers.
  EXPECT_FALSE(b.shares_buffer_with(Blob::copy_of(src)));
}

TEST(Blob, TakeAdoptsWithoutCopying) {
  auto src = sample_bytes();
  const auto* raw = src.data();
  const auto b = Blob::take(std::move(src));
  EXPECT_EQ(b.data(), raw);
}

TEST(Blob, TakeAdoptsAnArrayWithoutCopying) {
  // The journal reader's buffer: allocated for overwrite, filled, and
  // adopted at the length the read returned, which may fall short of the
  // allocation.
  std::shared_ptr<std::uint8_t[]> array =
      std::make_shared_for_overwrite<std::uint8_t[]>(8);
  for (std::uint8_t i = 0; i < 8; ++i) array[i] = i;
  const std::uint8_t* raw = array.get();
  Blob tail;
  {
    const auto b = Blob::take(std::move(array), 6);
    EXPECT_EQ(b.data(), raw);
    ASSERT_EQ(b.size(), 6u);
    EXPECT_EQ(b[5], 5);
    tail = b.slice(4, 2);
    EXPECT_TRUE(tail.shares_buffer_with(b));
  }
  // The slice keeps the array alive after the parent Blob is gone.
  EXPECT_EQ(tail.data(), raw + 4);
  EXPECT_EQ(tail[1], 5);
}

TEST(Blob, OfStringCopiesCharacters) {
  const auto b = Blob::of_string("hello");
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 'h');
  EXPECT_EQ(b[4], 'o');
}

TEST(Blob, CopyIsARefcountBumpNotAByteCopy) {
  const auto a = Blob::copy_of(sample_bytes());
  const Blob b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(b.shares_buffer_with(a));
  EXPECT_EQ(b.data(), a.data());
}

TEST(Blob, SliceAliasesTheParentBuffer) {
  const auto parent = Blob::take(sample_bytes());
  const auto child = parent.slice(8, 16);
  EXPECT_TRUE(child.shares_buffer_with(parent));
  EXPECT_EQ(child.data(), parent.data() + 8);
  ASSERT_EQ(child.size(), 16u);
  EXPECT_EQ(child[0], 8);
  EXPECT_EQ(child[15], 23);
}

TEST(Blob, SliceKeepsTheBufferAliveAfterTheParentDies) {
  Blob child;
  {
    const auto parent = Blob::take(sample_bytes());
    child = parent.slice(4, 8);
  }  // parent Blob destroyed; the slice must keep the backing buffer alive
  ASSERT_EQ(child.size(), 8u);
  for (std::size_t i = 0; i < child.size(); ++i) {
    EXPECT_EQ(child[i], static_cast<std::uint8_t>(4 + i));
  }
}

TEST(Blob, SliceEdgeCases) {
  const auto parent = Blob::take(sample_bytes());
  // Whole-buffer slice: same view, same owner.
  const auto whole = parent.slice(0, parent.size());
  EXPECT_EQ(whole, parent);
  EXPECT_TRUE(whole.shares_buffer_with(parent));
  // Empty slice at the very end is legal.
  const auto empty = parent.slice(parent.size(), 0);
  EXPECT_TRUE(empty.empty());
  // Slice of a slice composes offsets.
  const auto nested = parent.slice(16, 32).slice(8, 4);
  ASSERT_EQ(nested.size(), 4u);
  EXPECT_EQ(nested[0], 24);
  EXPECT_TRUE(nested.shares_buffer_with(parent));
}

TEST(Blob, SliceOutOfRangeThrows) {
  const auto parent = Blob::take(sample_bytes());
  EXPECT_THROW((void)parent.slice(0, parent.size() + 1), support::ParseError);
  EXPECT_THROW((void)parent.slice(parent.size() + 1, 0), support::ParseError);
  EXPECT_THROW((void)parent.slice(60, 8), support::ParseError);
  EXPECT_THROW((void)Blob{}.slice(1, 0), support::ParseError);
}

TEST(Blob, ContentEqualityAgainstByteRanges) {
  const auto src = sample_bytes();
  const auto b = Blob::copy_of(src);
  EXPECT_EQ(b, src);                       // heterogeneous Blob == Bytes
  EXPECT_EQ(b, Blob::copy_of(src));        // content, not identity
  EXPECT_FALSE(b == Blob::of_string("x"));
  EXPECT_EQ(b.to_bytes(), src);
}

// ---------------------------------------------------------------------------
// VFS snapshot guarantee: a read_file() view must stay valid (and keep the
// contents it had at read time) across delete and overwrite. Before Blobs,
// read_file returned a raw pointer into the file map — deleting the file
// while a reader held the pointer was a dangling read.
// ---------------------------------------------------------------------------

TEST(VfsSnapshot, ReadViewSurvivesDelete) {
  os::Vfs vfs;
  const auto who = os::Principal{.pkg = "com.example.a"};
  const auto path = os::internal_storage_dir("com.example.a") + "/payload.dex";
  ASSERT_TRUE(vfs.write_file(who, path, support::to_bytes("original")).ok());

  const auto view = vfs.read_file(path);
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(vfs.delete_file(who, path).ok());
  EXPECT_FALSE(vfs.exists(path));
  // The deleted file's bytes live on through the reader's view.
  EXPECT_EQ(view->to_bytes(), support::to_bytes("original"));
}

TEST(VfsSnapshot, ReadViewIsASnapshotAcrossOverwrite) {
  os::Vfs vfs;
  const auto who = os::Principal{.pkg = "com.example.a"};
  const auto path = os::internal_storage_dir("com.example.a") + "/cfg.bin";
  ASSERT_TRUE(vfs.write_file(who, path, support::to_bytes("v1")).ok());

  const auto before = vfs.read_file(path);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(vfs.write_file(who, path, support::to_bytes("v2-longer")).ok());

  EXPECT_EQ(before->to_bytes(), support::to_bytes("v1"));
  const auto after = vfs.read_file(path);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->to_bytes(), support::to_bytes("v2-longer"));
  EXPECT_FALSE(before->shares_buffer_with(*after));
}

}  // namespace
}  // namespace dydroid
