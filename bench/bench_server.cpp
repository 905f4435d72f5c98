//===- bench/bench_server.cpp - Serving tail latency under GC -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The serving workload (ROADMAP item 2): does compiler-inserted freeing
// buy tail latency when GC pauses land inside request SLOs, not just
// throughput on batch runs?
//
// One fixed open-loop request stream (Poisson arrivals, Zipfian session
// keys, mixed hugo/gojson/badger handlers -- precomputed from the seed,
// byte-identical everywhere) is served by every cell of the
//
//     {go, gofree} x {marksweep conc off, marksweep conc on}
//
// matrix. Per cell: p50/p99/p999 request latency measured from the
// *scheduled* arrival (queueing included -- no coordinated omission),
// per-request allocation-stall time (safepoint parks + mark assists),
// GC pause percentiles from the pause histogram, and the summed handler
// checksum. The checksums must agree across all four cells; a mismatch
// means a collector configuration changed program behavior, and the run
// says so loudly.
//
// Honesty notes (same contract as bench_gc_pause):
//   * hardware_threads and scaling_valid are recorded; with fewer cores
//     than workers the latency numbers include timesharing noise.
//   * rc serves one mutator (rt::gcServesMutators), so it has no cell in
//     a multi-worker matrix.
//   * Latencies are wall-clock and vary run to run; the request stream,
//     per-cell GC work, and checksums are seed-deterministic.
//
// GOFREE_BENCH_THREADS=N overrides the worker count (1..256). --json
// prints the machine-readable summary (tools/check.sh server pipes it
// into BENCH_server.json); --quick shrinks the stream for smoke tests.
//
//===----------------------------------------------------------------------===//

#include "workloads/ServeSim.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace gofree;
using namespace gofree::workloads;
using compiler::CompileMode;

namespace {

struct Cell {
  const char *ModeName;
  bool Conc;
  ServeSimResult R;
};

std::string pctJson(const char *Key, uint64_t P50, uint64_t P99,
                    uint64_t P999) {
  char Buf[160];
  std::snprintf(Buf, sizeof Buf,
                "\"%s\": {\"p50\": %llu, \"p99\": %llu, \"p999\": %llu}", Key,
                (unsigned long long)P50, (unsigned long long)P99,
                (unsigned long long)P999);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  ServeSimOptions Base;
  Base.Seed = 42;
  Base.Requests = 3000;
  Base.OfferedRps = 2500.0;
  Base.Workers = 4;
  Base.Sessions = 1 << 18;
  Base.CacheSlots = 2048;
  Base.ZipfTheta = 0.99;
  Base.Profile = "mix";
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json"))
      Json = true;
    else if (!std::strcmp(argv[I], "--quick")) {
      Base.Requests = 400;
      Base.OfferedRps = 2000.0;
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  if (const char *Env = std::getenv("GOFREE_BENCH_THREADS")) {
    int T = std::atoi(Env);
    if (T >= 1 && T <= 256)
      Base.Workers = T;
    else
      std::fprintf(stderr,
                   "bench_server: ignoring GOFREE_BENCH_THREADS='%s' "
                   "(want 1..256)\n",
                   Env);
  }
  bool ScalingValid = Cores >= (unsigned)Base.Workers;

  struct {
    CompileMode Mode;
    const char *Name;
  } Modes[] = {{CompileMode::Go, "go"}, {CompileMode::GoFree, "gofree"}};
  std::vector<Cell> Cells;
  bool AllOk = true;
  for (const auto &M : Modes)
    for (bool Conc : {false, true}) {
      ServeSimOptions SO = Base;
      SO.Mode = M.Mode;
      SO.Heap.Gc.Concurrent = Conc;
      Cell C{M.Name, Conc, runServeSim(SO)};
      if (!C.R.ok()) {
        std::fprintf(stderr, "bench_server: %s/conc=%d failed: %s\n", M.Name,
                     (int)Conc, C.R.Error.c_str());
        AllOk = false;
      }
      Cells.push_back(std::move(C));
    }

  // Differential honesty: every cell served the byte-identical stream, so
  // every cell's summed handler checksum must match the first's.
  bool ChecksumsAgree = true;
  for (const Cell &C : Cells)
    if (C.R.Checksum != Cells.front().R.Checksum)
      ChecksumsAgree = false;

  if (Json) {
    std::printf("{\n  \"bench\": \"server\",\n");
    std::printf("  \"hardware_threads\": %u,\n", Cores);
    std::printf("  \"workers\": %d,\n", Base.Workers);
    std::printf("  \"scaling_valid\": %s,\n", ScalingValid ? "true" : "false");
    std::printf("  \"seed\": %llu,\n", (unsigned long long)Base.Seed);
    std::printf("  \"requests\": %llu,\n", (unsigned long long)Base.Requests);
    std::printf("  \"offered_rps\": %.1f,\n", Base.OfferedRps);
    std::printf("  \"sessions\": %llu,\n", (unsigned long long)Base.Sessions);
    std::printf("  \"cache_slots\": %llu,\n",
                (unsigned long long)Base.CacheSlots);
    std::printf("  \"zipf_theta\": %.2f,\n", Base.ZipfTheta);
    std::printf("  \"profile\": \"%s\",\n", Base.Profile.c_str());
    std::printf("  \"open_loop\": true,\n");
    std::printf("  \"cells\": [\n");
    for (size_t I = 0; I < Cells.size(); ++I) {
      const Cell &C = Cells[I];
      const ServeSimResult &R = C.R;
      std::printf(
          "    {\"mode\": \"%s\", \"backend\": \"%s\", \"conc\": %s, "
          "%s, %s, %s, "
          "\"alloc_stall\": {\"park_ns\": %llu, \"parks\": %llu, "
          "\"assist_ns\": %llu, \"tcfree_giveups\": %llu}, "
          "\"gc_pauses\": %llu, \"achieved_rps\": %.1f, "
          "\"wall_s\": %.4f, \"checksum\": \"%016llx\", \"ok\": %s}%s\n",
          C.ModeName, R.GcBackend, C.Conc ? "true" : "false",
          pctJson("latency_ns", R.latencyPercentileNs(0.50),
                  R.latencyPercentileNs(0.99), R.latencyPercentileNs(0.999))
              .c_str(),
          pctJson("stall_ns", R.stallPercentileNs(0.50),
                  R.stallPercentileNs(0.99), R.stallPercentileNs(0.999))
              .c_str(),
          pctJson("gc_pause_us", R.Stats.pausePercentileUs(0.50),
                  R.Stats.pausePercentileUs(0.99),
                  R.Stats.pausePercentileUs(0.999))
              .c_str(),
          (unsigned long long)R.GcParkNanos, (unsigned long long)R.GcParks,
          (unsigned long long)R.GcAssistNanos,
          (unsigned long long)R.TcfreeGiveUps,
          (unsigned long long)R.Stats.GcPauses, R.AchievedRps, R.WallSeconds,
          (unsigned long long)R.Checksum, R.ok() ? "true" : "false",
          I + 1 < Cells.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"checksums_agree\": %s\n}\n",
                ChecksumsAgree ? "true" : "false");
    return AllOk && ChecksumsAgree ? 0 : 1;
  }

  std::printf("serving tail latency (hardware threads: %u, workers: %d, "
              "%llu requests @ %.0f rps, seed %llu)\n\n",
              Cores, Base.Workers, (unsigned long long)Base.Requests,
              Base.OfferedRps, (unsigned long long)Base.Seed);
  std::printf("%-7s %-9s %-5s | %9s %9s %9s | %9s | %7s %6s\n", "mode",
              "backend", "conc", "p50 ms", "p99 ms", "p999 ms", "stall p99",
              "pauses", "p99us");
  std::printf("------------------------+-------------------------"
              "------+-----------+---------------\n");
  for (const Cell &C : Cells)
    std::printf("%-7s %-9s %-5s | %9.3f %9.3f %9.3f | %9.3f | %7llu %6llu\n",
                C.ModeName, C.R.GcBackend, C.Conc ? "on" : "off",
                C.R.latencyPercentileNs(0.50) * 1e-6,
                C.R.latencyPercentileNs(0.99) * 1e-6,
                C.R.latencyPercentileNs(0.999) * 1e-6,
                C.R.stallPercentileNs(0.99) * 1e-6,
                (unsigned long long)C.R.Stats.GcPauses,
                (unsigned long long)C.R.Stats.pausePercentileUs(0.99));
  std::printf("\nchecksums %s\n",
              ChecksumsAgree ? "agree across all cells"
                             : "DIFFER across cells (bug!)");
  if (!ScalingValid)
    std::printf("workers (%d) exceed hardware threads (%u): latency "
                "includes timesharing noise\n",
                Base.Workers, Cores);
  return AllOk && ChecksumsAgree ? 0 : 1;
}
