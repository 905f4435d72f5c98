//===- workloads/ServeSim.h - Open-loop request-serving harness -*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving workload (ROADMAP item 2): an open-loop request-driven
/// harness where GC pauses become user-visible tail latency.
///
///  * N worker threads serve a shared stream of pre-generated requests.
///  * Arrivals are Poisson at a configurable offered rate (open-loop: the
///    schedule never slows down because the server is busy, so queueing
///    delay lands in the latency numbers instead of being silently
///    absorbed -- no coordinated omission).
///  * Each request looks up a Zipfian-keyed session in a shared long-lived
///    session cache (the long-lived heap), installs a fresh digest object
///    through the write barrier exactly like a production session store
///    (the displaced digest is garbage only the collector reclaims), then
///    runs a per-request MiniGo handler -- one of the hugo / gojson /
///    badger workload profiles at per-request size -- whose garbage dies
///    at request end. That per-request garbage is what compiler-inserted
///    freeing reclaims before the collector ever sees it.
///  * Request latency is measured from the *scheduled arrival* (not
///    service start), and each request is billed its allocation-stall
///    time: safepoint-park nanos (GC-pause overlap) plus mark-assist
///    nanos, from Heap::threadStalls deltas.
///
/// The request stream (arrival times, session keys, profile picks,
/// handler arguments) is precomputed from the seed, so every
/// configuration of the tcfree x backend x conc matrix serves the
/// byte-identical workload and the summed handler checksum must agree
/// across all cells -- the same differential honesty rule the fuzz
/// harness enforces.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_WORKLOADS_SERVESIM_H
#define GOFREE_WORKLOADS_SERVESIM_H

#include "compiler/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gofree {
namespace workloads {

/// Configuration of one serve-sim run.
struct ServeSimOptions {
  uint64_t Seed = 1;
  /// Mutator worker threads serving requests. A count the backend does not
  /// serve (rt::gcServesMutators) is refused before any thread starts.
  int Workers = 4;
  /// Total requests to serve.
  uint64_t Requests = 2000;
  /// Offered load in requests/second (Poisson arrivals). <= 0 runs
  /// closed-loop back-to-back (latency then measures service time only).
  double OfferedRps = 0.0;
  /// Distinct session keys (the Zipf distribution's support).
  uint64_t Sessions = 1 << 20;
  /// Long-lived session-cache entries (sessions hash onto these).
  uint64_t CacheSlots = 2048;
  /// Zipf skew; 0.99 is YCSB's default.
  double ZipfTheta = 0.99;
  /// Handler profile: "hugo", "gojson", "badger", or "mix".
  std::string Profile = "mix";
  /// Go (no tcfree) vs GoFree (compiler-inserted freeing).
  compiler::CompileMode Mode = compiler::CompileMode::GoFree;
  /// Runtime configuration (collector backend, conc, workers, ...).
  rt::HeapOptions Heap;
  /// Per-thread trace sinks come from here when non-null (one Request
  /// event per request, plus the usual runtime events). Not owned.
  trace::TraceHub *Hub = nullptr;
};

/// Result of one serve-sim run. Latency/stall vectors are indexed by
/// request id, so two runs of the same seed align element-wise.
struct ServeSimResult {
  uint64_t Requests = 0;
  bool OpenLoop = false;     ///< Whether latency includes queueing delay.
  double WallSeconds = 0.0;
  double AchievedRps = 0.0;

  std::vector<uint64_t> LatencyNs; ///< Per request, from scheduled arrival.
  std::vector<uint64_t> StallNs;   ///< Per request: park + assist nanos.

  /// Allocation-stall totals across all workers for the whole run.
  uint64_t GcParkNanos = 0;   ///< Safepoint parks (GC-pause overlap).
  uint64_t GcParks = 0;
  uint64_t GcAssistNanos = 0; ///< Mutator mark assists.
  uint64_t TcfreeGiveUps = 0;

  /// Wrapping sum of per-request handler checksums. Identical across
  /// every backend/mode/conc cell of the same seed, or something is
  /// wrong with the runtime (the bench asserts this).
  uint64_t Checksum = 0;
  /// Handler steps and sink() calls, summed over requests.
  uint64_t Steps = 0;
  uint64_t Sinks = 0;

  rt::StatsSnapshot Stats;
  const char *GcBackend = "marksweep";
  std::string Error; ///< First handler failure, empty on success.

  bool ok() const { return Error.empty(); }

  /// Percentile of a per-request metric (exact sample percentile over the
  /// recorded values; \p Q in (0, 1]). Returns 0 on an empty run.
  static uint64_t percentileNs(const std::vector<uint64_t> &V, double Q);
  uint64_t latencyPercentileNs(double Q) const {
    return percentileNs(LatencyNs, Q);
  }
  uint64_t stallPercentileNs(double Q) const {
    return percentileNs(StallNs, Q);
  }
};

/// Runs the serving simulation. Deterministic request *content* for a
/// given seed (arrivals, keys, profiles, handler args, checksum);
/// latencies and stall times are wall-clock measurements and vary.
ServeSimResult runServeSim(const ServeSimOptions &Opts);

} // namespace workloads
} // namespace gofree

#endif // GOFREE_WORKLOADS_SERVESIM_H
