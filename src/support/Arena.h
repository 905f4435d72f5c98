//===- support/Arena.h - Bump-pointer allocation arena ---------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used for AST nodes, their lists and names,
/// and other objects whose lifetime is tied to a compilation. Objects
/// allocated here are never individually freed; the whole arena is released
/// at once and no destructor runs. create() and the list functions therefore
/// accept only trivially destructible payloads, so nothing in an arena can
/// own heap memory: lists are arena spans and names are arena string_views.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_SUPPORT_ARENA_H
#define GOFREE_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gofree {

/// A bump-pointer arena. Not thread-safe; each compilation owns its own.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align) {
    assert(Align > 0 && (Align & (Align - 1)) == 0 && "alignment not a power of two");
    uintptr_t P = (Cur + Align - 1) & ~(uintptr_t)(Align - 1);
    if (P + Size > End) {
      grow(Size + Align);
      P = (Cur + Align - 1) & ~(uintptr_t)(Align - 1);
    }
    Cur = P + Size;
    BytesAllocated += Size;
    return reinterpret_cast<void *>(P);
  }

  /// Constructs a \p T in the arena, forwarding \p Args to its constructor.
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena payloads never run their destructors");
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(A)...);
  }

  /// Uninitialized room for an arena list of \p N elements. An empty list
  /// takes no arena space.
  template <typename T> std::span<T> allocateList(size_t N) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena lists hold trivially copyable elements");
    if (!N)
      return {};
    return {static_cast<T *>(allocate(N * sizeof(T), alignof(T))), N};
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<T> copy(std::span<const T> Items) {
    std::span<T> Out = allocateList<T>(Items.size());
    if (!Out.empty())
      std::memcpy(static_cast<void *>(Out.data()), Items.data(),
                  Items.size_bytes());
    return Out;
  }

  /// Copies the characters of \p S into the arena.
  std::string_view copy(std::string_view S) {
    std::span<const char> Chars = copy<char>({S.data(), S.size()});
    return {Chars.data(), Chars.size()};
  }

  /// Total payload bytes handed out (excludes slab slop).
  size_t bytesAllocated() const { return BytesAllocated; }

private:
  void grow(size_t AtLeast) {
    size_t SlabSize = Slabs.empty() ? 16384 : Slabs.back().second * 2;
    if (SlabSize > (1u << 22))
      SlabSize = 1u << 22;
    if (SlabSize < AtLeast)
      SlabSize = AtLeast;
    // Every byte is written before it is read, so the slab is not zeroed.
    Slabs.emplace_back(std::make_unique_for_overwrite<char[]>(SlabSize),
                       SlabSize);
    Cur = reinterpret_cast<uintptr_t>(Slabs.back().first.get());
    End = Cur + SlabSize;
  }

  std::vector<std::pair<std::unique_ptr<char[]>, size_t>> Slabs;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t BytesAllocated = 0;
};

} // namespace gofree

#endif // GOFREE_SUPPORT_ARENA_H
