//===- tests/CountingNew.h - Counting global operator new -------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces every form of global operator new and delete with malloc/free
/// wrappers that count calls, for tests that pin how much a path
/// allocates. The replacements are definitions: include this header from
/// exactly one source file of a test binary.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_TESTS_COUNTINGNEW_H
#define GOFREE_TESTS_COUNTINGNEW_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace counting_new {
/// Calls of any operator new, and of any operator delete on a non-null
/// pointer.
inline std::atomic<uint64_t> NewCalls{0};
inline std::atomic<uint64_t> DeleteCalls{0};

inline void *alloc(std::size_t Bytes, std::size_t Align) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (Bytes == 0)
    Bytes = 1;
  void *P = Align > alignof(std::max_align_t)
                ? std::aligned_alloc(Align, (Bytes + Align - 1) / Align * Align)
                : std::malloc(Bytes);
  if (!P)
    throw std::bad_alloc();
  return P;
}

inline void *allocNoThrow(std::size_t Bytes, std::size_t Align) noexcept {
  try {
    return alloc(Bytes, Align);
  } catch (const std::bad_alloc &) {
    return nullptr;
  }
}

inline void release(void *P) noexcept {
  if (P)
    DeleteCalls.fetch_add(1, std::memory_order_relaxed);
  std::free(P);
}
} // namespace counting_new

// Every replaceable form, so new and delete always pair with malloc and
// free (sanitizer builds check that they match; std::stable_sort's
// temporary buffer uses the nothrow forms).
void *operator new(std::size_t N) { return counting_new::alloc(N, 0); }
void *operator new[](std::size_t N) { return counting_new::alloc(N, 0); }
void *operator new(std::size_t N, std::align_val_t A) {
  return counting_new::alloc(N, (std::size_t)A);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return counting_new::alloc(N, (std::size_t)A);
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return counting_new::allocNoThrow(N, 0);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return counting_new::allocNoThrow(N, 0);
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return counting_new::allocNoThrow(N, (std::size_t)A);
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return counting_new::allocNoThrow(N, (std::size_t)A);
}
void operator delete(void *P) noexcept { counting_new::release(P); }
void operator delete[](void *P) noexcept { counting_new::release(P); }
void operator delete(void *P, std::size_t) noexcept {
  counting_new::release(P);
}
void operator delete[](void *P, std::size_t) noexcept {
  counting_new::release(P);
}
void operator delete(void *P, std::align_val_t) noexcept {
  counting_new::release(P);
}
void operator delete[](void *P, std::align_val_t) noexcept {
  counting_new::release(P);
}
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  counting_new::release(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  counting_new::release(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  counting_new::release(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  counting_new::release(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  counting_new::release(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  counting_new::release(P);
}

#endif // GOFREE_TESTS_COUNTINGNEW_H
