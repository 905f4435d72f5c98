//===- tests/ServerTest.cpp - Serving-harness (serve-sim) tests -----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The open-loop serving harness behind `gofree serve-sim` and
// bench_server. Pins the properties the bench's honesty rests on: the
// request stream is seed-deterministic (same checksum across runs AND
// across collector backends / compile modes), percentiles are ordered and
// computed from the recorded per-request vectors, per-request stall
// attribution adds up to the run totals, and the trace hub sees one
// Request event per request. Runs under the `server_smoke` ctest label
// (tools/check.sh server), including a TSan build.
//
//===----------------------------------------------------------------------===//

#include "workloads/ServeSim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace gofree;
using namespace gofree::workloads;
using compiler::CompileMode;

namespace {

/// Small fixed-seed run: enough requests for real GC activity on the
/// partial-cycle backends, small enough for a smoke label.
ServeSimOptions smokeOpts() {
  ServeSimOptions O;
  O.Seed = 7;
  O.Workers = 3;
  O.Requests = 120;
  O.OfferedRps = 0.0; // Closed-loop: no wall-clock-dependent waits.
  O.Sessions = 4096;
  O.CacheSlots = 128;
  O.Profile = "mix";
  return O;
}

} // namespace

TEST(ServeSimTest, DeterministicChecksumAcrossRunsAndBackends) {
  ServeSimOptions O = smokeOpts();
  ServeSimResult First = runServeSim(O);
  ASSERT_TRUE(First.ok()) << First.Error;
  ASSERT_EQ(First.Requests, O.Requests);
  EXPECT_NE(First.Checksum, 0u);

  // Same seed, same stream: re-run agrees bit for bit.
  ServeSimResult Again = runServeSim(O);
  ASSERT_TRUE(Again.ok()) << Again.Error;
  EXPECT_EQ(Again.Checksum, First.Checksum);

  // The rc backend (on the one worker it serves) and the stock-Go mode
  // serve the identical stream -- the differential-honesty law
  // bench_server enforces.
  ServeSimOptions RcO = O;
  RcO.Heap.Gc.Backend = rt::GcBackendKind::Rc;
  RcO.Workers = 1;
  ServeSimResult Rc = runServeSim(RcO);
  ASSERT_TRUE(Rc.ok()) << Rc.Error;
  EXPECT_EQ(Rc.Checksum, First.Checksum) << "backend rc changed behavior";
  ServeSimOptions GoO = O;
  GoO.Mode = CompileMode::Go;
  ServeSimResult Go = runServeSim(GoO);
  ASSERT_TRUE(Go.ok()) << Go.Error;
  EXPECT_EQ(Go.Checksum, First.Checksum) << "go leg changed behavior";
}

TEST(ServeSimTest, RcWithSeveralWorkersIsRefused) {
  ServeSimOptions O = smokeOpts();
  O.Heap.Gc.Backend = rt::GcBackendKind::Rc;
  ASSERT_EQ(O.Workers, 3);
  ServeSimResult R = runServeSim(O);
  EXPECT_EQ(R.Error, "the rc collector serves exactly one mutator, not 3");
  EXPECT_EQ(R.Requests, 0u) << "no request may be served";
  EXPECT_TRUE(R.LatencyNs.empty());
}

TEST(ServeSimTest, DifferentSeedsProduceDifferentStreams) {
  ServeSimOptions O = smokeOpts();
  ServeSimResult A = runServeSim(O);
  O.Seed = 8;
  ServeSimResult B = runServeSim(O);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_NE(A.Checksum, B.Checksum)
      << "the seed must actually shape the request stream";
}

TEST(ServeSimTest, PercentilesComeFromRecordedVectors) {
  ServeSimResult R = runServeSim(smokeOpts());
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.LatencyNs.size(), R.Requests);
  ASSERT_EQ(R.StallNs.size(), R.Requests);
  // Every request was actually served (closed-loop service time > 0).
  for (uint64_t L : R.LatencyNs)
    EXPECT_GT(L, 0u);
  EXPECT_LE(R.latencyPercentileNs(0.50), R.latencyPercentileNs(0.99));
  EXPECT_LE(R.latencyPercentileNs(0.99), R.latencyPercentileNs(0.999));
  uint64_t Max = *std::max_element(R.LatencyNs.begin(), R.LatencyNs.end());
  EXPECT_LE(R.latencyPercentileNs(0.999), Max);
  EXPECT_EQ(R.latencyPercentileNs(1.0), Max);
}

TEST(ServeSimTest, PercentileNsRankMath) {
  // 1..100: the exact sample percentile at rank ceil(Q*N).
  std::vector<uint64_t> V(100);
  std::iota(V.begin(), V.end(), 1);
  EXPECT_EQ(ServeSimResult::percentileNs(V, 0.50), 50u);
  EXPECT_EQ(ServeSimResult::percentileNs(V, 0.99), 99u);
  EXPECT_EQ(ServeSimResult::percentileNs(V, 0.999), 100u);
  EXPECT_EQ(ServeSimResult::percentileNs(V, 1.0), 100u);
  EXPECT_EQ(ServeSimResult::percentileNs({}, 0.5), 0u);
  EXPECT_EQ(ServeSimResult::percentileNs({42}, 0.999), 42u);
  // Order-independent: percentile sorts a copy.
  std::vector<uint64_t> Rev(V.rbegin(), V.rend());
  EXPECT_EQ(ServeSimResult::percentileNs(Rev, 0.99), 99u);
}

TEST(ServeSimTest, PerRequestStallsAddUpToRunTotals) {
  // Tight triggers so the run actually pauses: stalls only land on
  // requests, never between them (workers deregister while idle).
  ServeSimOptions O = smokeOpts();
  O.Requests = 200;
  O.Heap.Gc.MinHeapTrigger = 256 << 10;
  ServeSimResult R = runServeSim(O);
  ASSERT_TRUE(R.ok()) << R.Error;
  uint64_t PerRequest =
      std::accumulate(R.StallNs.begin(), R.StallNs.end(), (uint64_t)0);
  EXPECT_EQ(PerRequest, R.GcParkNanos + R.GcAssistNanos)
      << "per-request stall attribution must cover exactly the workers' "
         "park + assist time";
  EXPECT_GT(R.Stats.GcPauses, 0u) << "the tight trigger never paused; the "
                                     "attribution test proved nothing";
}

TEST(ServeSimTest, HubReceivesOneRequestEventPerRequest) {
  trace::TraceHub Hub;
  ServeSimOptions O = smokeOpts();
  O.Requests = 50;
  O.Hub = &Hub;
  ServeSimResult R = runServeSim(O);
  ASSERT_TRUE(R.ok()) << R.Error;
  uint64_t Requests = 0, LatencyNs = 0;
  for (const trace::Event &E : Hub.merge())
    if (E.Kind == trace::EventKind::Request) {
      ++Requests;
      LatencyNs += E.V0;
    }
  EXPECT_EQ(Requests, 50u);
  EXPECT_EQ(Hub.sinkCount(), (size_t)O.Workers);
  EXPECT_EQ(Hub.droppedBySink().size(), (size_t)O.Workers);
  // The events' latencies add up to the recorded vector.
  EXPECT_EQ(LatencyNs, std::accumulate(R.LatencyNs.begin(),
                                       R.LatencyNs.end(), (uint64_t)0));
}

TEST(ServeSimTest, OpenLoopMeasuresFromScheduledArrival) {
  ServeSimOptions O = smokeOpts();
  O.Requests = 60;
  O.OfferedRps = 50000.0; // Deliberately above service rate: queue builds.
  ServeSimResult R = runServeSim(O);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.OpenLoop);
  // With arrivals far faster than service, later requests queue; their
  // latency (from scheduled arrival) must exceed pure service time by the
  // time they waited. Weak but robust signal: p999 over an overloaded run
  // is at least the p50 (queueing never *reduces* measured latency), and
  // the achieved rate is below the offered rate.
  EXPECT_LT(R.AchievedRps, O.OfferedRps);
  EXPECT_GE(R.latencyPercentileNs(0.999), R.latencyPercentileNs(0.50));
}

TEST(ServeSimTest, BadProfileIsReportedNotCrashed) {
  ServeSimOptions O = smokeOpts();
  O.Profile = "hugo"; // Fixed profile works...
  ServeSimResult R = runServeSim(O);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_NE(R.Checksum, 0u);
}
