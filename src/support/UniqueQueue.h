//===- support/UniqueQueue.h - FIFO queue with membership test -*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work queue used by the escape-property propagation algorithm (fig. 5
/// of the paper): a FIFO that silently drops pushes of elements already
/// enqueued, so each location is present at most once. This is the structure
/// behind the SPFA/queue-optimized Bellman-Ford walk.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_SUPPORT_UNIQUEQUEUE_H
#define GOFREE_SUPPORT_UNIQUEQUEUE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gofree {

/// FIFO over dense indices [0, Universe) where each index can be enqueued at
/// most once at a time. Re-pushing an element that is currently queued is a
/// no-op; once popped it may be pushed again. At most Universe elements are
/// queued at once, so the queue is a ring of that size, and reset() reuses
/// its storage for the next universe.
class UniqueQueue {
public:
  explicit UniqueQueue(size_t Universe = 0) { reset(Universe); }

  /// Empties the queue and makes [0, Universe) its universe.
  void reset(size_t Universe) {
    Ring.resize(Universe);
    InQueue.assign(Universe, 0);
    Head = Count = 0;
  }

  /// Grows the universe so indices up to \p Universe-1 become valid.
  void growUniverse(size_t Universe) {
    if (Universe <= Ring.size())
      return;
    // Unwrap the ring so the queued elements start at slot 0.
    std::rotate(Ring.begin(), Ring.begin() + (ptrdiff_t)Head, Ring.end());
    Head = 0;
    Ring.resize(Universe);
    InQueue.resize(Universe, 0);
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// Enqueues \p Idx unless it is already queued. Returns true if enqueued.
  bool push(size_t Idx) {
    assert(Idx < InQueue.size() && "index outside queue universe");
    if (InQueue[Idx])
      return false;
    InQueue[Idx] = 1;
    size_t Tail = Head + Count;
    Ring[Tail < Ring.size() ? Tail : Tail - Ring.size()] = Idx;
    ++Count;
    return true;
  }

  /// Pops the oldest element. Precondition: !empty().
  size_t pop() {
    assert(Count && "pop from empty UniqueQueue");
    size_t Idx = Ring[Head];
    Head = Head + 1 == Ring.size() ? 0 : Head + 1;
    --Count;
    InQueue[Idx] = 0;
    return Idx;
  }

private:
  std::vector<size_t> Ring;
  std::vector<uint8_t> InQueue;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace gofree

#endif // GOFREE_SUPPORT_UNIQUEQUEUE_H
