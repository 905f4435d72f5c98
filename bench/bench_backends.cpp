//===- bench/bench_backends.cpp - tcfree x collector-backend matrix -------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The headline question the pluggable-backend work unlocks: does
// compiler-inserted freeing still pay off when the collector is NOT the
// paper's mark-sweep? Each of the six subject programs runs under
// tcfree on (gofree) and off (go) for each backend -- marksweep and rc --
// on one shared heap configuration per backend. The reported ratios are
// GoFree/Go per backend (below 100% = tcfree wins); checksums must agree
// across all four cells of a subject's row or the bench aborts.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include <cstdio>
#include <iterator>

using namespace gofree;
using namespace gofree::bench;
using namespace gofree::workloads;

namespace {

struct BackendSpec {
  const char *Label; ///< Column label.
  const char *Flag;  ///< The --gc leg flag, replayable verbatim.
};

const BackendSpec Backends[] = {
    {"marksweep", "--gc=marksweep"},
    {"rc", "--gc=rc"},
};
constexpr size_t NumBackends = std::size(Backends);

} // namespace

int main() {
  int Runs = runCount();
  std::printf("tcfree x collector backend (%d runs per cell; ratios are "
              "GoFree/Go per backend, <100%% = tcfree wins)\n\n",
              Runs);
  std::printf("%-11s |", "project");
  for (const BackendSpec &B : Backends) {
    char Head[64];
    std::snprintf(Head, sizeof(Head), "%s: free  GCt%%  GCs%% time%%",
                  B.Label);
    std::printf(" %-32s |", Head);
  }
  std::printf("\n");
  std::printf("------------+");
  for (size_t I = 0; I < NumBackends; ++I)
    std::printf("-----------------------------------+");
  std::printf("\n");

  double SumGcT[NumBackends] = {}, SumGcs[NumBackends] = {},
         SumTime[NumBackends] = {};
  int N = 0;
  for (const Workload &W : subjectWorkloads()) {
    std::printf("%-11s |", W.Name.c_str());
    uint64_t Checksum = 0;
    bool First = true;
    for (size_t BI = 0; BI < NumBackends; ++BI) {
      const BackendSpec &B = Backends[BI];
      SettingSample Go = runSetting(W, Setting::Go, Runs, {}, B.Flag);
      SettingSample Free = runSetting(W, Setting::GoFree, Runs, {}, B.Flag);
      if (First) {
        Checksum = Go.Checksum;
        First = false;
      }
      if (Go.Checksum != Checksum || Free.Checksum != Checksum) {
        std::fprintf(stderr, "\n%s: checksum mismatch under %s!\n",
                     W.Name.c_str(), B.Label);
        return 1;
      }
      double GcT = ratioPct(Free.GcTimeSec, Go.GcTimeSec);
      double Gcs = ratioPct(Free.GcCycles, Go.GcCycles);
      double Time = ratioPct(Free.TimeSec, Go.TimeSec);
      // The rc backend's "cycles" are dominated by ZCT drains; report
      // drains+backups together, the same GcCycles total the others use.
      std::printf("   free=%3.0f%%  %4.0f%%  %4.0f%%  %4.0f%% |",
                  100.0 * summarize(Free.FreeRatio).Mean, GcT, Gcs, Time);
      SumGcT[BI] += GcT;
      SumGcs[BI] += Gcs;
      SumTime[BI] += Time;
    }
    std::printf("\n");
    ++N;
  }
  std::printf("------------+");
  for (size_t I = 0; I < NumBackends; ++I)
    std::printf("-----------------------------------+");
  std::printf("\n%-11s |", "average");
  for (size_t BI = 0; BI < NumBackends; ++BI)
    std::printf("              %4.0f%%  %4.0f%%  %4.0f%% |", SumGcT[BI] / N,
                SumGcs[BI] / N, SumTime[BI] / N);
  std::printf("\n\npaper (marksweep avg): GC time 87%%, GCs 93%%, time 98%%; "
              "the rc column has no paper counterpart\n");
  return 0;
}
