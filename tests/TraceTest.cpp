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

#include "SecondMutator.h"
#include "compiler/Driver.h"
#include "compiler/Pipeline.h"
#include "interp/Interp.h"
#include "runtime/Heap.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
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

uint64_t countKind(const TraceHub &H, EventKind K) {
  uint64_t N = 0;
  for (const Event &E : H.merge())
    N += E.Kind == K;
  return N;
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
  TraceHub Hub(8);
  TraceSink &S = *Hub.makeSink();
  S.emit(EventKind::GcPaceTrigger, 0, 1000, 2000);
  S.emit(EventKind::TcfreeFreed, (uint8_t)rt::FreeSource::TcfreeSlice, 64);
  S.emit(EventKind::TcfreeGiveUp, (uint8_t)GiveUpReason::DoubleFree, 1);
  S.emit(EventKind::PassTime, (uint8_t)Pass::EscapeSolve, 12345);
  // Overflow by one so the terminator must carry a non-zero drop count.
  for (int I = 0; I < 5; ++I)
    S.emit(EventKind::HeapAlloc, 0, 8);

  std::ostringstream Os;
  writeJsonLines(Os, Hub.merge(), Hub.dropped());
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

//===----------------------------------------------------------------------===//
// Runtime hooks: every tcfree outcome is traced with its reason
//===----------------------------------------------------------------------===//

TEST(TraceRuntimeTest, GiveUpReasonsAreBucketed) {
  TraceSink Sink;
  rt::Heap H;
  rt::Heap::MutatorScope Scope(H, 0, &Sink);

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
  HO.Mock = rt::MockTcfree::Zero;
  rt::Heap H(HO);
  rt::Heap::MutatorScope Scope(H, 0, &Sink);

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
  rt::Heap H;
  rt::Heap::MutatorScope Scope(H, 0, &Sink);

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
  // A full cycle with and without its concurrent window runs the same
  // body; pin the exact GC event order of both shapes. The conc leg runs
  // a second (untraced) mutator so the window opens, and sweeps eagerly
  // so the sweep stays inside the last pause as in the solo conc=0 leg.
  for (bool Conc : {false, true}) {
    SCOPED_TRACE(Conc ? "conc=1" : "conc=0");
    TraceHub Hub;
    TraceSink &Sink = *Hub.makeSink();
    rt::HeapOptions HO;
    HO.Gc.Concurrent = Conc;
    HO.Gc.EagerSweep = Conc;
    rt::Heap H(HO);
    rt::Heap::MutatorScope Scope(H, 0, &Sink);

    // Unreachable garbage (no root scanner installed), then a forced
    // cycle.
    for (int I = 0; I < 64; ++I)
      H.allocate(256, nullptr, rt::AllocCat::Other, 0);
    {
      std::unique_ptr<SecondMutator> Other;
      if (Conc)
        Other = std::make_unique<SecondMutator>(H, 1);
      H.runGc();
    }

    std::vector<std::string> Got;
    for (size_t I = 0, N = Sink.size(); I < N; ++I)
      if (Sink[I].Kind != EventKind::HeapAlloc)
        Got.push_back(eventKindName(Sink[I].Kind));
    std::vector<EventKind> Want =
        Conc ? std::vector<EventKind>{EventKind::GcMarkStart,
                                      EventKind::GcStwFlip,
                                      EventKind::GcMarkWorker,
                                      EventKind::GcMarkEnd,
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

    std::vector<Event> Merged = Hub.merge();
    uint64_t Cycles = 0, SweptBytes = 0;
    for (const Event &E : Merged) {
      Cycles += E.Kind == EventKind::GcCycleEnd;
      if (E.Kind == EventKind::GcSweepEnd || E.Kind == EventKind::GcSweepLazy)
        SweptBytes += E.V0;
    }
    EXPECT_EQ(Cycles, 1u);
    EXPECT_GE(SweptBytes, 64u * 256u);
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

// The trace and the counters are two records of one run: with nothing
// dropped, every event family that has a counter must add up to it. The
// reports print the counters only, so this is what keeps the event stream
// honest. quickstart has tcfree'd slices and maps, a double-free give-up
// per round and retained growth that forces GC cycles; the legs cover both
// modes, one and three mutators, mock frees, the STW and concurrent
// collectors, and rc (one mutator only: it serves no more) with a threshold
// low enough that ZCT drains run on every leg (at 64, the gofree leg
// drains nothing: its frees leave too few zero-count objects).
TEST(TraceEndToEndTest, EventsAddUpToCounters) {
  std::ifstream In(GOFREE_SOURCE_DIR "/examples/quickstart.minigo");
  ASSERT_TRUE(In) << "cannot read examples/quickstart.minigo";
  std::stringstream Src;
  Src << In.rdbuf();

  for (const char *Mode : {"--mode=go", "--mode=gofree"})
    for (const char *Threads : {"--num-threads=1", "--num-threads=3"})
      for (const char *Leg :
           {"--gc=marksweep", "--mock=zero", "--gc=conc=0",
            "--gc=rc,zct-threshold=16"}) {
        if (std::string(Leg) == "--gc=rc,zct-threshold=16" &&
            std::string(Threads) == "--num-threads=3")
          continue;
        SCOPED_TRACE(std::string(Mode) + " " + Threads + " " + Leg);
        compiler::driver::PipelineOptions P;
        std::string Err;
        ASSERT_TRUE(compiler::driver::parseFlags({Mode, Threads, Leg}, P, &Err))
            << Err;
        TraceHub Hub;
        P.Compile.Trace = Hub.makeSink();
        P.Exec.Hub = &Hub;
        compiler::Compilation C;
        compiler::ExecOutcome O =
            compiler::driver::compileAndRun(Src.str(), P, {500}, &C);
        ASSERT_TRUE(O.ok()) << O.Error;
        ASSERT_EQ(Hub.dropped(), 0u);
        const rt::StatsSnapshot &S = O.Stats;

        uint64_t FreedCount[NumFreeSources] = {};
        uint64_t FreedBytes[NumFreeSources] = {};
        uint64_t GiveUps[NumGiveUpReasons] = {};
        uint64_t HeapAllocs[NumAllocCats] = {}, StackAllocs[NumAllocCats] = {};
        uint64_t PassNs[NumPasses] = {};
        uint64_t Cycles = 0, SweptBytes = 0, LazySweeps = 0, Assists = 0,
                 Flips = 0;
        for (const Event &E : Hub.merge()) {
          switch (E.Kind) {
          case EventKind::TcfreeFreed:
            ++FreedCount[E.Arg];
            FreedBytes[E.Arg] += E.V0;
            break;
          case EventKind::TcfreeGiveUp:
            GiveUps[E.Arg] += E.V0;
            break;
          case EventKind::HeapAlloc:
            ++HeapAllocs[E.Arg];
            break;
          case EventKind::StackAlloc:
            ++StackAllocs[E.Arg];
            break;
          case EventKind::GcCycleEnd:
            ++Cycles;
            break;
          case EventKind::GcSweepEnd:
            SweptBytes += E.V0;
            break;
          case EventKind::GcSweepLazy:
            ++LazySweeps;
            SweptBytes += E.V0;
            break;
          case EventKind::GcAssist:
            ++Assists;
            break;
          case EventKind::GcStwFlip:
            ++Flips;
            break;
          case EventKind::PassTime:
            PassNs[E.Arg] += E.V0;
            break;
          default:
            break;
          }
        }

        for (int F = 0; F < NumFreeSources; ++F) {
          EXPECT_EQ(FreedCount[F], S.FreedCountBySource[F]) << "source " << F;
          EXPECT_EQ(FreedBytes[F], S.FreedBytesBySource[F]) << "source " << F;
        }
        for (int R = 0; R < NumGiveUpReasons; ++R)
          EXPECT_EQ(GiveUps[R], S.TcfreeGiveUpsByReason[R])
              << giveUpReasonName((GiveUpReason)R);
        for (int Cat = 0; Cat < NumAllocCats; ++Cat) {
          EXPECT_EQ(HeapAllocs[Cat], S.AllocCountByCat[Cat]) << "cat " << Cat;
          EXPECT_EQ(StackAllocs[Cat], S.StackAllocCountByCat[Cat])
              << "cat " << Cat;
        }
        EXPECT_EQ(Cycles, S.GcCycles);
        EXPECT_EQ(SweptBytes, S.GcSweptBytes);
        EXPECT_EQ(LazySweeps, S.GcSpansSweptLazy);
        EXPECT_EQ(Assists, S.GcAssists);
        EXPECT_EQ(Flips, 2 * S.GcConcCycles);
        for (int Pass = 0; Pass < NumPasses; ++Pass)
          EXPECT_EQ(PassNs[Pass], C.Passes.Nanos[Pass])
              << passName((trace::Pass)Pass);

        // Each leg exercised what it is there for.
        bool GoFree = std::string(Mode) == "--mode=gofree";
        EXPECT_GT(S.GcCycles, 0u);
        if (GoFree) {
          EXPECT_GT(S.TcfreeCalls, 0u);
        }
        if (GoFree && std::string(Leg) == "--mock=zero") {
          EXPECT_GT(S.TcfreeGiveUpsByReason[(int)GiveUpReason::Mock], 0u);
        }
        if (std::string(Leg) == "--gc=rc,zct-threshold=16") {
          EXPECT_GT(S.GcZctDrains, 0u);
        }
      }
}

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

  TraceHub FreeHub, GoHub;
  compiler::ExecOptions FreeEO, GoEO;
  FreeEO.Hub = &FreeHub;
  GoEO.Hub = &GoHub;

  // GoFree leg first, then the Go leg, like compare does.
  compiler::ExecOutcome OFree =
      compiler::execute(Free, "main", {200}, FreeEO);
  ASSERT_TRUE(OFree.Run.ok()) << OFree.Run.Error;
  compiler::ExecOutcome OGo = compiler::execute(Go, "main", {200}, GoEO);
  ASSERT_TRUE(OGo.Run.ok()) << OGo.Run.Error;

  EXPECT_EQ(OFree.Run.Checksum, OGo.Run.Checksum);
  EXPECT_GT(OFree.Stats.TcfreeCalls, 0u);
  EXPECT_GT(countKind(FreeHub, EventKind::TcfreeFreed), 0u);

  // The Go leg saw none of the GoFree leg's activity.
  EXPECT_EQ(OGo.Stats.TcfreeCalls, 0u);
  EXPECT_EQ(OGo.Stats.TcfreeGiveUps, 0u);
  for (int R = 0; R < NumGiveUpReasons; ++R)
    EXPECT_EQ(OGo.Stats.TcfreeGiveUpsByReason[R], 0u);
  EXPECT_EQ(countKind(GoHub, EventKind::TcfreeFreed), 0u);
  EXPECT_EQ(countKind(GoHub, EventKind::TcfreeGiveUp), 0u);
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
  rt::Heap H;
  interp::Interp I(*C.Prog, H, {});
  rt::Heap::MutatorScope Scope(H, 0, &Sink);
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
// `gofree --trace-out` reports on stderr, so a biased merged stream is
// always flagged.
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
  ASSERT_EQ(Hub.sinkCount(), 2u);
  EXPECT_EQ(Hub.merge().size(), 7u) << "merge keeps what the rings retained";
}

TEST(TraceOverflowTest, RequestEventsCarryLatencyAndStall) {
  TraceHub Hub;
  TraceSink &S = *Hub.makeSink();
  S.emit(EventKind::Request, /*Profile=*/1, /*LatencyNs=*/2'000'000,
         /*StallNs=*/250'000);
  S.emit(EventKind::Request, /*Profile=*/0, /*LatencyNs=*/1'000'000,
         /*StallNs=*/0);
  uint64_t Requests = 0, LatencyNs = 0, StallNs = 0;
  for (const Event &E : Hub.merge())
    if (E.Kind == EventKind::Request) {
      ++Requests;
      LatencyNs += E.V0;
      StallNs += E.V1;
    }
  EXPECT_EQ(Requests, 2u);
  EXPECT_EQ(LatencyNs, 3'000'000u);
  EXPECT_EQ(StallNs, 250'000u);
  // And the JSONL writer names the event (schema v2).
  std::ostringstream Os;
  writeJsonLines(Os, Hub.merge(), Hub.dropped(), "gofree");
  EXPECT_NE(Os.str().find("\"ev\":\"request\""), std::string::npos);
  EXPECT_NE(Os.str().find("\"latency_ns\":2000000"), std::string::npos);
}
