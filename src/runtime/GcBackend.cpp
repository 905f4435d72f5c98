//===- runtime/GcBackend.cpp - Backend registry and marksweep -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The backend name table, the factory, and the marksweep backend -- a thin
// shim: the parallel-mark lazy-sweep machinery it delegates to is the
// heap's own (Gc.cpp), shared with the other backends' full cycles.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcBackend.h"
#include "runtime/Heap.h"

namespace gofree {
namespace rt {

GcBackend::~GcBackend() = default;

const char *gcBackendName(GcBackendKind K) {
  switch (K) {
  case GcBackendKind::MarkSweep:
    return "marksweep";
  case GcBackendKind::Generational:
    return "generational";
  case GcBackendKind::Rc:
    return "rc";
  }
  return "?";
}

bool parseGcBackendKind(std::string_view Name, GcBackendKind &Out) {
  if (Name == "marksweep") {
    Out = GcBackendKind::MarkSweep;
    return true;
  }
  if (Name == "generational" || Name == "gen") {
    Out = GcBackendKind::Generational;
    return true;
  }
  if (Name == "rc") {
    Out = GcBackendKind::Rc;
    return true;
  }
  return false;
}

/// The paper's baseline collector. Everything interesting lives in Gc.cpp;
/// this class only supplies the pacing decision and names the full cycle.
class MarkSweepGc : public GcBackend {
public:
  using GcBackend::GcBackend;
  GcBackendKind kind() const override { return GcBackendKind::MarkSweep; }

  GcCycleKind pace(uint64_t Live) override {
    return Live >= H.NextTrigger.load(std::memory_order_relaxed)
               ? GcCycleKind::Full
               : GcCycleKind::None;
  }

  void collectStw(GcCycleKind, bool Forced) override {
    // Minor / ZctDrain requests (runGcCycle test hook) fall back to the
    // only cycle this backend has.
    H.fullMarkSweepStw(Forced);
  }

  bool supportsConcurrentMark(GcCycleKind Kind) const override {
    return Kind == GcCycleKind::Full;
  }
};

std::unique_ptr<GcBackend> makeGcBackend(Heap &H, const GcConfig &Cfg) {
  switch (Cfg.Backend) {
  case GcBackendKind::MarkSweep:
    return std::make_unique<MarkSweepGc>(H);
  case GcBackendKind::Generational:
    return makeGenerationalGc(H, Cfg);
  case GcBackendKind::Rc:
    return makeRcGc(H, Cfg);
  }
  return std::make_unique<MarkSweepGc>(H);
}

} // namespace rt
} // namespace gofree
