//===- tests/TraceTest.cpp - Event-tracing subsystem tests ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Covers the trace sink itself (bounded ring, drop counter, JSON-lines
// output), the runtime hooks (GC phases, every tcfree outcome with its
// give-up reason, mock mode), the per-pass compiler timings, and two
// end-to-end regressions: compare-style legs must not contaminate each
// other's stats, and frees skipped at a panic tail must stay observable as
// GC-reclaimed garbage.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "interp/Interp.h"
#include "runtime/Heap.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace gofree;
using namespace gofree::trace;

namespace {

/// Events of one kind currently in the sink.
std::vector<Event> eventsOfKind(const TraceSink &S, EventKind K) {
  std::vector<Event> Out;
  for (size_t I = 0, N = S.size(); I < N; ++I)
    if (S[I].Kind == K)
      Out.push_back(S[I]);
  return Out;
}

uint64_t countKind(const TraceSink &S, EventKind K) {
  return (uint64_t)eventsOfKind(S, K).size();
}

/// Give-up events carry the reason in Arg and the call count in V0.
uint64_t giveUpsWithReason(const TraceSink &S, GiveUpReason R) {
  uint64_t N = 0;
  for (const Event &E : eventsOfKind(S, EventKind::TcfreeGiveUp))
    if ((GiveUpReason)E.Arg == R)
      N += E.V0;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// The sink: bounded ring, drop accounting, JSON-lines shape
//===----------------------------------------------------------------------===//

TEST(TraceSinkTest, RingIsBoundedAndCountsDrops) {
  TraceSink S(4);
  for (int I = 0; I < 10; ++I)
    S.emit(EventKind::HeapAlloc, 0, (uint64_t)I);
  EXPECT_EQ(S.size(), 4u);
  EXPECT_EQ(S.capacity(), 4u);
  EXPECT_EQ(S.dropped(), 6u);
  // The first four events survive; later ones were dropped, not wrapped.
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(S[I].V0, I);
  S.clear();
  EXPECT_EQ(S.size(), 0u);
  EXPECT_EQ(S.dropped(), 0u);
  S.emit(EventKind::StackAlloc, 1, 42, 7);
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Kind, EventKind::StackAlloc);
  EXPECT_EQ(S[0].Arg, 1);
  EXPECT_EQ(S[0].V0, 42u);
  EXPECT_EQ(S[0].V1, 7u);
}

TEST(TraceSinkTest, TimestampsAreMonotonic) {
  TraceSink S(16);
  for (int I = 0; I < 16; ++I)
    S.emit(EventKind::PassTime, (uint8_t)(I % NumPasses), 1);
  for (size_t I = 1; I < S.size(); ++I)
    EXPECT_LE(S[I - 1].TimeNs, S[I].TimeNs);
}

TEST(TraceSinkTest, JsonLinesAreObjectsWithTerminator) {
  TraceSink S(8);
  S.emit(EventKind::GcPaceTrigger, 0, 1000, 2000);
  S.emit(EventKind::TcfreeFreed, (uint8_t)rt::FreeSource::TcfreeSlice, 64);
  S.emit(EventKind::TcfreeGiveUp, (uint8_t)GiveUpReason::DoubleFree, 1);
  S.emit(EventKind::PassTime, (uint8_t)Pass::EscapeSolve, 12345);
  // Overflow by one so the terminator must carry a non-zero drop count.
  for (int I = 0; I < 5; ++I)
    S.emit(EventKind::HeapAlloc, 0, 8);

  std::ostringstream Os;
  writeJsonLines(Os, S);
  std::istringstream Is(Os.str());
  std::string Line;
  std::vector<std::string> Lines;
  while (std::getline(Is, Line))
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), S.size() + 1); // events + trace-end
  for (const std::string &L : Lines) {
    ASSERT_FALSE(L.empty());
    EXPECT_EQ(L.front(), '{');
    EXPECT_EQ(L.back(), '}');
    EXPECT_NE(L.find("\"ev\":\""), std::string::npos) << L;
  }
  EXPECT_NE(Lines[0].find("\"ev\":\"gc-pace-trigger\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"outcome\":\"freed\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"source\":\"slice\""), std::string::npos);
  EXPECT_NE(Lines[2].find("\"reason\":\"double-free\""), std::string::npos);
  EXPECT_NE(Lines[3].find("\"pass\":\"escape-solve\""), std::string::npos);
  EXPECT_NE(Lines.back().find("\"ev\":\"trace-end\""), std::string::npos);
  EXPECT_NE(Lines.back().find("\"dropped\":1"), std::string::npos);
}

TEST(TraceSinkTest, SummarizeFoldsEveryFamily) {
  TraceSink S(32);
  S.emit(EventKind::GcPaceTrigger, 0, 100, 200);
  S.emit(EventKind::GcMarkStart, 0, 100);
  S.emit(EventKind::GcMarkEnd, 0, 50);
  S.emit(EventKind::GcSweepEnd, 0, 4096, 3);
  S.emit(EventKind::GcCycleEnd, 0, 80, 64);
  S.emit(EventKind::TcfreeFreed, (uint8_t)rt::FreeSource::TcfreeMap, 128);
  S.emit(EventKind::TcfreeGiveUp, (uint8_t)GiveUpReason::GcRunning, 5);
  S.emit(EventKind::TcfreeGiveUp, (uint8_t)GiveUpReason::Mock, 2);
  S.emit(EventKind::HeapAlloc, (uint8_t)rt::AllocCat::Slice, 256);
  S.emit(EventKind::StackAlloc, (uint8_t)rt::AllocCat::Other, 24);
  S.emit(EventKind::PassTime, (uint8_t)Pass::Lifetime, 999);

  TraceSummary Sum = summarize(S);
  EXPECT_EQ(Sum.Events, 11u);
  EXPECT_EQ(Sum.DroppedEvents, 0u);
  EXPECT_EQ(Sum.GcPaceTriggers, 1u);
  EXPECT_EQ(Sum.GcCycles, 1u);
  EXPECT_EQ(Sum.GcMarkNanos, 50u);
  EXPECT_EQ(Sum.GcCycleNanos, 80u);
  EXPECT_EQ(Sum.GcSweptBytes, 4096u);
  EXPECT_EQ(Sum.GcSweptObjects, 3u);
  EXPECT_EQ(Sum.TcfreeFreedCount, 1u);
  EXPECT_EQ(Sum.TcfreeFreedBytes, 128u);
  EXPECT_EQ(Sum.FreedBytesBySource[(int)rt::FreeSource::TcfreeMap], 128u);
  // Mock is bucketed but excluded from the give-up total.
  EXPECT_EQ(Sum.GiveUps, 5u);
  EXPECT_EQ(Sum.GiveUpsByReason[(int)GiveUpReason::GcRunning], 5u);
  EXPECT_EQ(Sum.GiveUpsByReason[(int)GiveUpReason::Mock], 2u);
  EXPECT_EQ(Sum.HeapAllocCount[(int)rt::AllocCat::Slice], 1u);
  EXPECT_EQ(Sum.HeapAllocBytes[(int)rt::AllocCat::Slice], 256u);
  EXPECT_EQ(Sum.StackAllocCount[(int)rt::AllocCat::Other], 1u);
  EXPECT_EQ(Sum.PassNanos[(int)Pass::Lifetime], 999u);
  EXPECT_TRUE(Sum.PassSeen[(int)Pass::Lifetime]);
  EXPECT_FALSE(Sum.PassSeen[(int)Pass::Lex]);
}

//===----------------------------------------------------------------------===//
// Runtime hooks: every tcfree outcome is traced with its reason
//===----------------------------------------------------------------------===//

TEST(TraceRuntimeTest, GiveUpReasonsAreBucketed) {
  TraceSink Sink;
  rt::HeapOptions HO;
  HO.Trace = &Sink;
  rt::Heap H(HO);

  uintptr_t A = H.allocate(64, nullptr, rt::AllocCat::Slice, 0);
  ASSERT_NE(A, 0u);

  // nil pointer.
  EXPECT_FALSE(H.tcfreeObject(0, 0, rt::FreeSource::TcfreeObject));
  // Address outside the heap (a stack local).
  int Local = 0;
  EXPECT_FALSE(H.tcfreeObject(reinterpret_cast<uintptr_t>(&Local), 0,
                              rt::FreeSource::TcfreeObject));
  // Span cached by another thread.
  EXPECT_FALSE(H.tcfreeObject(A, 1, rt::FreeSource::TcfreeSlice));
  // A successful free, then a benign double free.
  EXPECT_TRUE(H.tcfreeObject(A, 0, rt::FreeSource::TcfreeSlice));
  EXPECT_FALSE(H.tcfreeObject(A, 0, rt::FreeSource::TcfreeSlice));

  rt::StatsSnapshot S = H.stats().snap();
  EXPECT_EQ(S.TcfreeCalls, 5u);
  EXPECT_EQ(S.TcfreeGiveUps, 4u);
  EXPECT_EQ(S.TcfreeGiveUpsByReason[(int)GiveUpReason::NullAddr], 1u);
  EXPECT_EQ(S.TcfreeGiveUpsByReason[(int)GiveUpReason::UnknownAddr], 1u);
  EXPECT_EQ(S.TcfreeGiveUpsByReason[(int)GiveUpReason::ForeignSpan], 1u);
  EXPECT_EQ(S.TcfreeGiveUpsByReason[(int)GiveUpReason::DoubleFree], 1u);
  // Invariant: the per-reason buckets (minus Mock) partition the give-ups.
  uint64_t Sum = 0;
  for (int R = 0; R < NumGiveUpReasons; ++R)
    if (R != (int)GiveUpReason::Mock)
      Sum += S.TcfreeGiveUpsByReason[R];
  EXPECT_EQ(Sum, S.TcfreeGiveUps);

  // The trace mirrors the counters.
  EXPECT_EQ(giveUpsWithReason(Sink, GiveUpReason::NullAddr), 1u);
  EXPECT_EQ(giveUpsWithReason(Sink, GiveUpReason::UnknownAddr), 1u);
  EXPECT_EQ(giveUpsWithReason(Sink, GiveUpReason::ForeignSpan), 1u);
  EXPECT_EQ(giveUpsWithReason(Sink, GiveUpReason::DoubleFree), 1u);
  std::vector<Event> Freed = eventsOfKind(Sink, EventKind::TcfreeFreed);
  ASSERT_EQ(Freed.size(), 1u);
  EXPECT_EQ(Freed[0].Arg, (uint8_t)rt::FreeSource::TcfreeSlice);
  EXPECT_EQ(Freed[0].V0, 64u);
}

TEST(TraceRuntimeTest, MockIsTracedButNotAGiveUp) {
  TraceSink Sink;
  rt::HeapOptions HO;
  HO.Trace = &Sink;
  HO.Mock = rt::MockTcfree::Zero;
  rt::Heap H(HO);

  uintptr_t A = H.allocate(32, nullptr, rt::AllocCat::Other, 0);
  ASSERT_NE(A, 0u);
  // A mocked tcfree "succeeds" (poisons, returns true)...
  EXPECT_TRUE(H.tcfreeObject(A, 0, rt::FreeSource::TcfreeObject));

  rt::StatsSnapshot S = H.stats().snap();
  // ...so it is not a give-up, but it is bucketed and traced under Mock.
  EXPECT_EQ(S.TcfreeGiveUps, 0u);
  EXPECT_EQ(S.TcfreeGiveUpsByReason[(int)GiveUpReason::Mock], 1u);
  EXPECT_EQ(giveUpsWithReason(Sink, GiveUpReason::Mock), 1u);
  EXPECT_EQ(countKind(Sink, EventKind::TcfreeFreed), 0u);
}

TEST(TraceRuntimeTest, AllocationsAreCategorized) {
  TraceSink Sink;
  rt::HeapOptions HO;
  HO.Trace = &Sink;
  rt::Heap H(HO);

  H.allocate(64, nullptr, rt::AllocCat::Slice, 0);
  H.allocate(128, nullptr, rt::AllocCat::Map, 0);
  // A large allocation gets its own span and V1 = 1.
  H.allocate(1 << 20, nullptr, rt::AllocCat::Slice, 0);

  std::vector<Event> Allocs = eventsOfKind(Sink, EventKind::HeapAlloc);
  ASSERT_EQ(Allocs.size(), 3u);
  EXPECT_EQ(Allocs[0].Arg, (uint8_t)rt::AllocCat::Slice);
  EXPECT_EQ(Allocs[1].Arg, (uint8_t)rt::AllocCat::Map);
  EXPECT_EQ(Allocs[2].V1, 1u); // Large-span flag.
}

TEST(TraceRuntimeTest, GcCycleEmitsPhaseEvents) {
  // The STW and concurrent cycle bodies share their end-of-cycle steps
  // (dangling retirement, sweep-or-queue, re-pace); pin each body's exact
  // GC event order so the shared tail is checked in both.
  for (bool Conc : {false, true}) {
    SCOPED_TRACE(Conc ? "conc=1" : "conc=0");
    TraceSink Sink;
    rt::HeapOptions HO;
    HO.Trace = &Sink;
    HO.Gc.Concurrent = Conc;
    rt::Heap H(HO);

    // Unreachable garbage (no root scanner installed), then a forced
    // cycle. Solo and forced, so it sweeps inside the (last) pause.
    for (int I = 0; I < 64; ++I)
      H.allocate(256, nullptr, rt::AllocCat::Other, 0);
    H.runGc();

    std::vector<std::string> Got;
    for (size_t I = 0, N = Sink.size(); I < N; ++I)
      if (Sink[I].Kind != EventKind::HeapAlloc)
        Got.push_back(eventKindName(Sink[I].Kind));
    std::vector<EventKind> Want =
        Conc ? std::vector<EventKind>{EventKind::GcMarkStart,
                                      EventKind::GcStwFlip,
                                      EventKind::GcMarkEnd,
                                      EventKind::GcMarkWorker,
                                      EventKind::GcSweepEnd,
                                      EventKind::GcStwFlip,
                                      EventKind::GcConcMark,
                                      EventKind::GcCycleEnd}
             : std::vector<EventKind>{EventKind::GcMarkStart,
                                      EventKind::GcMarkWorker,
                                      EventKind::GcMarkEnd,
                                      EventKind::GcSweepEnd,
                                      EventKind::GcCycleEnd};
    std::vector<std::string> WantNames;
    for (EventKind K : Want)
      WantNames.push_back(eventKindName(K));
    EXPECT_EQ(Got, WantNames);
    EXPECT_EQ(countKind(Sink, EventKind::GcStwFlip), Conc ? 2u : 0u);

    std::vector<Event> Sweeps = eventsOfKind(Sink, EventKind::GcSweepEnd);
    ASSERT_EQ(Sweeps.size(), 1u);
    EXPECT_GE(Sweeps[0].V0, 64u * 256u); // Swept at least the garbage.
    EXPECT_GE(Sweeps[0].V1, 64u);        // Object count.

    TraceSummary Sum = summarize(Sink);
    EXPECT_EQ(Sum.GcCycles, 1u);
    EXPECT_GE(Sum.GcSweptBytes, 64u * 256u);
  }
}

//===----------------------------------------------------------------------===//
// Compiler hooks: per-pass timings
//===----------------------------------------------------------------------===//

TEST(TracePipelineTest, PassTimingsArePopulated) {
  TraceSink Sink;
  compiler::CompileOptions CO;
  CO.Trace = &Sink;
  compiler::Compilation C = compiler::compile("func f(n int) int {\n"
                                              "  s := make([]int, n)\n"
                                              "  s[0] = n\n"
                                              "  return s[0]\n"
                                              "}\n",
                                              CO);
  ASSERT_TRUE(C.ok()) << C.Errors;
  // Every pipeline pass ran and was timed (GoFree mode includes Insert).
  for (int P = 0; P < NumPasses; ++P)
    EXPECT_GT(C.Passes.Nanos[P], 0u) << "pass " << passName((Pass)P);
  // Each timing was also emitted as an event.
  std::vector<Event> Passes = eventsOfKind(Sink, EventKind::PassTime);
  ASSERT_EQ(Passes.size(), (size_t)NumPasses);
  for (const Event &E : Passes)
    EXPECT_EQ(E.V0, C.Passes.Nanos[E.Arg]);
}

TEST(TracePipelineTest, GoModeSkipsInsertPass) {
  compiler::CompileOptions CO;
  CO.Mode = compiler::CompileMode::Go;
  compiler::Compilation C =
      compiler::compile("func f(n int) int { return n }\n", CO);
  ASSERT_TRUE(C.ok()) << C.Errors;
  EXPECT_EQ(C.Passes.Nanos[(int)Pass::Insert], 0u);
  EXPECT_GT(C.Passes.Nanos[(int)Pass::Parse], 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end regressions
//===----------------------------------------------------------------------===//

namespace {

const char *CompareSrc = "func work(n int) int {\n"
                         "  s := make([]int, n)\n"
                         "  s[0] = n\n"
                         "  return s[0]\n"
                         "}\n"
                         "func main(rounds int) {\n"
                         "  acc := 0\n"
                         "  for i := 0; i < rounds; i = i + 1 {\n"
                         "    acc = acc + work(i % 16 + 8)\n"
                         "  }\n"
                         "  sink(acc)\n"
                         "}\n";

} // namespace

// Regression for `gofree compare`: the two legs run in one process and must
// not share heap statistics or a trace sink -- the Go leg must come out
// with no tcfree activity at all even after a GoFree leg ran first.
TEST(TraceEndToEndTest, CompareLegsStatsAreIsolated) {
  compiler::CompileOptions FreeCO;
  FreeCO.Mode = compiler::CompileMode::GoFree;
  compiler::Compilation Free = compiler::compile(CompareSrc, FreeCO);
  ASSERT_TRUE(Free.ok()) << Free.Errors;

  compiler::CompileOptions GoCO;
  GoCO.Mode = compiler::CompileMode::Go;
  compiler::Compilation Go = compiler::compile(CompareSrc, GoCO);
  ASSERT_TRUE(Go.ok()) << Go.Errors;

  TraceSink FreeSink, GoSink;
  compiler::ExecOptions FreeEO, GoEO;
  FreeEO.Heap.Trace = &FreeSink;
  GoEO.Heap.Trace = &GoSink;

  // GoFree leg first, then the Go leg, like compare does.
  compiler::ExecOutcome OFree =
      compiler::execute(Free, "main", {200}, FreeEO);
  ASSERT_TRUE(OFree.Run.ok()) << OFree.Run.Error;
  compiler::ExecOutcome OGo = compiler::execute(Go, "main", {200}, GoEO);
  ASSERT_TRUE(OGo.Run.ok()) << OGo.Run.Error;

  EXPECT_EQ(OFree.Run.Checksum, OGo.Run.Checksum);
  EXPECT_GT(OFree.Stats.TcfreeCalls, 0u);
  EXPECT_GT(countKind(FreeSink, EventKind::TcfreeFreed), 0u);

  // The Go leg saw none of the GoFree leg's activity.
  EXPECT_EQ(OGo.Stats.TcfreeCalls, 0u);
  EXPECT_EQ(OGo.Stats.TcfreeGiveUps, 0u);
  for (int R = 0; R < NumGiveUpReasons; ++R)
    EXPECT_EQ(OGo.Stats.TcfreeGiveUpsByReason[R], 0u);
  EXPECT_EQ(countKind(GoSink, EventKind::TcfreeFreed), 0u);
  EXPECT_EQ(countKind(GoSink, EventKind::TcfreeGiveUp), 0u);
}

// Regression for the panic-tail skip (FreeInserter): a scope whose tail
// panics gets no tcfrees, but the skipped objects are not lost -- they stay
// plain garbage and the collector reclaims them, observably in the trace.
TEST(TraceEndToEndTest, PanicTailSkippedFreesReclaimedByGc) {
  const char *Src = "func work(n int, sz int) int {\n"
                    "  kept := make([]int, sz)\n"
                    "  kept[0] = n\n"
                    "  if n < 0 {\n"
                    "    bad := make([]int, sz)\n"
                    "    bad[0] = n\n"
                    "    panic(bad[0])\n"
                    "  }\n"
                    "  return kept[0]\n"
                    "}\n"
                    "func main(rounds int) {\n"
                    "  acc := 0\n"
                    "  for i := 0; i < rounds; i = i + 1 {\n"
                    "    acc = acc + work(i, i % 16 + 8)\n"
                    "  }\n"
                    "  sink(acc)\n"
                    "  sink(work(0 - 1, 16))\n"
                    "}\n";
  compiler::Compilation C = compiler::compile(Src, {});
  ASSERT_TRUE(C.ok()) << C.Errors;
  // The panic tail suppressed `bad`'s free; `kept`'s frees survive.
  EXPECT_GE(C.Instr.SkippedUnsafeTail, 1u);
  EXPECT_GE(C.Instr.SliceFrees, 1u);

  // Drive the interpreter on our own heap so we can force a GC after the
  // panic unwinds and watch the sweep reclaim the skipped objects.
  TraceSink Sink;
  rt::HeapOptions HO;
  HO.Trace = &Sink;
  rt::Heap H(HO);
  interp::Interp I(*C.Prog, C.Analysis, H, {});
  interp::RunResult R = I.run("main", {100});
  EXPECT_TRUE(R.Panicked);

  // Normal iterations freed `kept` explicitly.
  uint64_t FreedBefore = countKind(Sink, EventKind::TcfreeFreed);
  EXPECT_GT(FreedBefore, 0u);

  // The panic path leaked `kept` and `bad` (their frees were skipped or
  // never reached); after unwinding nothing roots them, so a forced cycle
  // sweeps them -- the trace shows the reclaim.
  H.runGc();
  std::vector<Event> Sweeps = eventsOfKind(Sink, EventKind::GcSweepEnd);
  ASSERT_GE(Sweeps.size(), 1u);
  EXPECT_GT(Sweeps.back().V0, 0u) << "GC reclaimed no skipped garbage";
  EXPECT_GE(Sweeps.back().V1, 2u) << "expected at least kept+bad swept";
}

//===----------------------------------------------------------------------===//
// Ring overflow accounting. The ring is bounded by design; what used to be
// silent truncation is now a per-sink drop counter that the hub merges and
// --trace-summary prints, so a biased merged stream is always flagged.
//===----------------------------------------------------------------------===//

TEST(TraceOverflowTest, TinyRingCountsEveryDroppedEvent) {
  TraceSink S(/*Capacity=*/8);
  for (int I = 0; I < 100; ++I)
    S.emit(EventKind::TcfreeFreed, 0, (uint64_t)I, 0);
  EXPECT_EQ(S.size(), 8u) << "the ring never grows past its capacity";
  EXPECT_EQ(S.dropped(), 92u) << "every rejected emit is counted";
  // The retained prefix is the *first* 8 events, not an arbitrary sample.
  for (size_t I = 0; I < S.size(); ++I)
    EXPECT_EQ(S[I].V0, (uint64_t)I);
  // clear() resets both the cursor and the drop counter.
  S.clear();
  EXPECT_EQ(S.size(), 0u);
  EXPECT_EQ(S.dropped(), 0u);
}

TEST(TraceOverflowTest, HubMergesAndAttributesDrops) {
  TraceHub Hub(/*CapacityPerSink=*/4);
  TraceSink *A = Hub.makeSink();
  TraceSink *B = Hub.makeSink();
  for (int I = 0; I < 10; ++I)
    A->emit(EventKind::TcfreeFreed); // 6 dropped.
  for (int I = 0; I < 3; ++I)
    B->emit(EventKind::TcfreeFreed); // None dropped.
  EXPECT_EQ(Hub.dropped(), 6u);
  std::vector<uint64_t> PerSink = Hub.droppedBySink();
  ASSERT_EQ(PerSink.size(), 2u);
  EXPECT_EQ(PerSink[0], 6u) << "the overflowing sink is identifiable";
  EXPECT_EQ(PerSink[1], 0u);
  // The summary carries both the total and the per-sink breakdown.
  TraceSummary Sum = summarize(Hub);
  EXPECT_EQ(Sum.DroppedEvents, 6u);
  ASSERT_EQ(Sum.DroppedBySink.size(), 2u);
  EXPECT_EQ(Sum.DroppedBySink[0], 6u);
  EXPECT_EQ(Sum.Events, 7u) << "merge keeps what the rings retained";
}

TEST(TraceOverflowTest, RequestEventsFoldIntoSummary) {
  TraceSink S;
  S.emit(EventKind::Request, /*Profile=*/1, /*LatencyNs=*/2'000'000,
         /*StallNs=*/250'000);
  S.emit(EventKind::Request, /*Profile=*/0, /*LatencyNs=*/1'000'000,
         /*StallNs=*/0);
  TraceSummary Sum = summarize(S);
  EXPECT_EQ(Sum.Requests, 2u);
  EXPECT_EQ(Sum.RequestLatencyNanos, 3'000'000u);
  EXPECT_EQ(Sum.RequestStallNanos, 250'000u);
  // And the JSONL writer names the event (schema v2).
  std::ostringstream Os;
  writeJsonLines(Os, S, "gofree");
  EXPECT_NE(Os.str().find("\"ev\":\"request\""), std::string::npos);
  EXPECT_NE(Os.str().find("\"latency_ns\":2000000"), std::string::npos);
}
