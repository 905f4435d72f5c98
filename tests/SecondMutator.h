//===- tests/SecondMutator.h - A mutator that runs beside the collector ---===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// A full cycle opens its concurrent mark window only when another mutator
// is registered (docs/GC.md), so a test or bench that pins the window runs
// one of these beside the collecting thread. It registers on its own cache
// and allocates pointer-free garbage in a loop until stopped: it reaches a
// safepoint at every allocation and runs inside every window. It has no
// roots and traces nothing.
//
//===----------------------------------------------------------------------===//

#ifndef GOFREE_TESTS_SECONDMUTATOR_H
#define GOFREE_TESTS_SECONDMUTATOR_H

#include "runtime/Heap.h"

#include <atomic>
#include <cstdint>
#include <thread>

namespace gofree {

class SecondMutator {
public:
  /// Returns once the thread is registered on \p H, so the next cycle
  /// counts it.
  SecondMutator(rt::Heap &H, int CacheId)
      : H(H), Thread([this, CacheId] {
          rt::Heap::MutatorScope Scope(this->H, CacheId);
          Running.store(true, std::memory_order_release);
          while (!Stop.load(std::memory_order_relaxed)) {
            this->H.allocate(64, nullptr, rt::AllocCat::Other,
                             Scope.cacheId());
            // Marksweep raises the barrier only inside a window.
            if (this->H.gcBarrierActive())
              InWindow.fetch_add(1, std::memory_order_relaxed);
          }
          // No heap call follows, so no cycle of this thread's can be
          // waiting for anyone.
          Running.store(false, std::memory_order_release);
        }) {
    while (!Running.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  ~SecondMutator() { stop(); }
  SecondMutator(const SecondMutator &) = delete;
  SecondMutator &operator=(const SecondMutator &) = delete;

  /// Stops the thread and joins it. Its allocations may start a cycle,
  /// which waits for every other registered mutator to park, so a caller
  /// registered on cache \p CallerCache keeps reaching safepoints (a null
  /// tcfree, which starts no cycle) until the thread has made its last
  /// heap call. A caller that is not registered, or on a heap where no
  /// cycle can start, passes no cache.
  void stop(int CallerCache = -1) {
    Stop.store(true, std::memory_order_relaxed);
    if (CallerCache >= 0)
      while (Running.load(std::memory_order_acquire))
        H.tcfreeObject(0, CallerCache, rt::FreeSource::TcfreeObject);
    if (Thread.joinable())
      Thread.join();
  }

  /// Allocations that returned while a concurrent mark window was open.
  uint64_t allocsInWindow() const {
    return InWindow.load(std::memory_order_relaxed);
  }

private:
  rt::Heap &H;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> InWindow{0};
  std::thread Thread;
};

} // namespace gofree

#endif // GOFREE_TESTS_SECONDMUTATOR_H
