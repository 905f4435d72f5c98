//===- support/Trace.cpp - Event tracing and metrics sink ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

namespace gofree {
namespace trace {

const char *eventKindName(EventKind K) {
  switch (K) {
  case EventKind::GcPaceTrigger:
    return "gc-pace-trigger";
  case EventKind::GcMarkStart:
    return "gc-mark-start";
  case EventKind::GcMarkEnd:
    return "gc-mark-end";
  case EventKind::GcSweepEnd:
    return "gc-sweep-end";
  case EventKind::GcCycleEnd:
    return "gc-cycle-end";
  case EventKind::TcfreeFreed:
  case EventKind::TcfreeGiveUp:
    return "tcfree";
  case EventKind::HeapAlloc:
  case EventKind::StackAlloc:
    return "alloc";
  case EventKind::PassTime:
    return "pass";
  case EventKind::GcMarkWorker:
    return "gc-mark-worker";
  case EventKind::GcSweepLazy:
    return "gc-sweep-lazy";
  case EventKind::GcStwFlip:
    return "gc-stw-flip";
  case EventKind::GcConcMark:
    return "gc-conc-mark";
  case EventKind::GcAssist:
    return "gc-assist";
  case EventKind::Request:
    return "request";
  }
  return "unknown";
}

const char *sweepWhereName(uint8_t W) {
  switch (W) {
  case 0:
    return "stw";
  case 1:
    return "refill";
  case 2:
    return "credit";
  case 3:
    return "owner";
  case 4:
    return "tcfree";
  case 5:
    return "drain";
  }
  return "unknown";
}

const char *gcCycleKindName(uint8_t K) {
  switch (K) {
  case 0:
    return "full";
  case 1:
    return "zct-drain";
  }
  return "unknown";
}

const char *giveUpReasonName(GiveUpReason R) {
  switch (R) {
  case GiveUpReason::NullAddr:
    return "null-addr";
  case GiveUpReason::GcRunning:
    return "gc-running";
  case GiveUpReason::UnknownAddr:
    return "unknown-addr";
  case GiveUpReason::ForeignSpan:
    return "foreign-span";
  case GiveUpReason::DoubleFree:
    return "double-free";
  case GiveUpReason::Mock:
    return "mock";
  }
  return "unknown";
}

const char *passName(Pass P) {
  switch (P) {
  case Pass::Lex:
    return "lex";
  case Pass::Parse:
    return "parse";
  case Pass::Sema:
    return "sema";
  case Pass::EscapeBuild:
    return "escape-build";
  case Pass::EscapeSolve:
    return "escape-solve";
  case Pass::Lifetime:
    return "lifetime";
  case Pass::Insert:
    return "insert";
  }
  return "unknown";
}

// Mirrors rt::AllocCat (Heap.cpp static_asserts the values agree).
const char *allocCatName(uint8_t Cat) {
  switch (Cat) {
  case 0:
    return "other";
  case 1:
    return "slice";
  case 2:
    return "map";
  }
  return "unknown";
}

// Mirrors rt::FreeSource (Heap.cpp static_asserts the values agree).
const char *freeSourceName(uint8_t Source) {
  switch (Source) {
  case 0:
    return "object";
  case 1:
    return "slice";
  case 2:
    return "map";
  case 3:
    return "map-grow-old";
  }
  return "unknown";
}

TraceSink *TraceHub::makeSink() {
  std::lock_guard<std::mutex> Lock(Mu);
  Sinks.push_back(std::make_unique<TraceSink>(CapacityPerSink, Epoch));
  return Sinks.back().get();
}

std::vector<Event> TraceHub::merge() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Event> Out;
  size_t Total = 0;
  for (const auto &S : Sinks)
    Total += S->size();
  Out.reserve(Total);
  for (const auto &S : Sinks) {
    size_t N = S->size();
    for (size_t I = 0; I < N; ++I)
      Out.push_back((*S)[I]);
  }
  // Each sink is already time-ordered; stable_sort keeps sink-creation
  // order for identical timestamps, making the merge deterministic.
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Event &A, const Event &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  return Out;
}

uint64_t TraceHub::dropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t D = 0;
  for (const auto &S : Sinks)
    D += S->dropped();
  return D;
}

std::vector<uint64_t> TraceHub::droppedBySink() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<uint64_t> Out;
  Out.reserve(Sinks.size());
  for (const auto &S : Sinks)
    Out.push_back(S->dropped());
  return Out;
}

size_t TraceHub::sinkCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Sinks.size();
}

/// Folds one event into the running summary.
static void foldEvent(TraceSummary &S, const Event &E) {
  switch (E.Kind) {
    case EventKind::GcPaceTrigger:
      ++S.GcPaceTriggers;
      break;
    case EventKind::GcMarkStart:
      break;
    case EventKind::GcMarkEnd:
      S.GcMarkNanos += E.V0;
      break;
    case EventKind::GcSweepEnd:
      S.GcSweptBytes += E.V0;
      S.GcSweptObjects += E.V1;
      break;
    case EventKind::GcCycleEnd:
      ++S.GcCycles;
      S.GcCycleNanos += E.V0;
      ++S.GcCyclesByKind[E.Arg < 2 ? E.Arg : 0];
      break;
    case EventKind::TcfreeFreed:
      ++S.TcfreeFreedCount;
      S.TcfreeFreedBytes += E.V0;
      if (E.Arg < NumFreeSources) {
        ++S.FreedCountBySource[E.Arg];
        S.FreedBytesBySource[E.Arg] += E.V0;
      }
      break;
    case EventKind::TcfreeGiveUp:
      // Mock events are bucketed but not give-ups (the call "succeeded"),
      // matching the exact StatsSnapshot semantics.
      if (E.Arg != (uint8_t)GiveUpReason::Mock)
        S.GiveUps += E.V0;
      if (E.Arg < NumGiveUpReasons)
        S.GiveUpsByReason[E.Arg] += E.V0;
      break;
    case EventKind::HeapAlloc:
      if (E.Arg < NumAllocCats) {
        ++S.HeapAllocCount[E.Arg];
        S.HeapAllocBytes[E.Arg] += E.V0;
      }
      break;
    case EventKind::StackAlloc:
      if (E.Arg < NumAllocCats)
        ++S.StackAllocCount[E.Arg];
      break;
    case EventKind::PassTime:
      if (E.Arg < NumPasses) {
        S.PassNanos[E.Arg] += E.V0;
        S.PassSeen[E.Arg] = true;
      }
      break;
    case EventKind::GcMarkWorker:
      ++S.GcMarkWorkersSeen;
      S.GcMarkWorkerNanos += E.V0;
      break;
    case EventKind::GcSweepLazy:
      // A lazy sweep reclaims the same garbage an STW sweep would have, so
      // it lands in the same totals; GcLazySweeps records how much of the
      // sweeping moved off the pause.
      ++S.GcLazySweeps;
      S.GcSweptBytes += E.V0;
      S.GcSweptObjects += E.V1;
      break;
    case EventKind::GcStwFlip:
      ++S.GcStwFlips;
      S.GcStwFlipNanos += E.V0;
      break;
    case EventKind::GcConcMark:
      ++S.GcConcMarks;
      S.GcConcMarkNanos += E.V0;
      break;
    case EventKind::GcAssist:
      ++S.GcAssists;
      S.GcAssistBytes += E.V0;
      break;
    case EventKind::Request:
      ++S.Requests;
      S.RequestLatencyNanos += E.V0;
      S.RequestStallNanos += E.V1;
      break;
  }
}

TraceSummary summarize(const std::vector<Event> &Events, uint64_t Dropped) {
  TraceSummary S;
  S.Events = Events.size();
  S.DroppedEvents = Dropped;
  for (const Event &E : Events)
    foldEvent(S, E);
  return S;
}

TraceSummary summarize(const TraceHub &Hub) {
  TraceSummary S = summarize(Hub.merge(), Hub.dropped());
  S.DroppedBySink = Hub.droppedBySink();
  return S;
}

/// Writes the common line prefix: schema version, optional leg name, and
/// the timestamp. Every JSONL record (events and trace-end) starts with
/// it, so consumers can key on "v"/"leg" uniformly.
static int formatPrefix(char *Line, size_t Size, const char *Leg) {
  if (Leg)
    return std::snprintf(Line, Size, "{\"v\":%d,\"leg\":\"%s\"",
                         JsonSchemaVersion, Leg);
  return std::snprintf(Line, Size, "{\"v\":%d", JsonSchemaVersion);
}

/// Formats one event as a JSON line.
static void formatEvent(char *Line, size_t Size, const Event &E,
                        const char *Leg) {
  int N = formatPrefix(Line, Size, Leg);
  Line += N;
  Size -= (size_t)N;
  switch (E.Kind) {
    case EventKind::GcPaceTrigger:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"gc-pace-trigger\",\"live\":%" PRIu64
                    ",\"trigger\":%" PRIu64 "}\n",
                    E.TimeNs, E.V0, E.V1);
      break;
    case EventKind::GcMarkStart:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"gc-mark-start\",\"live\":%" PRIu64
                    "}\n",
                    E.TimeNs, E.V0);
      break;
    case EventKind::GcMarkEnd:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"gc-mark-end\",\"ns\":%" PRIu64
                    "}\n",
                    E.TimeNs, E.V0);
      break;
    case EventKind::GcSweepEnd:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"gc-sweep-end\",\"bytes\":%" PRIu64
                    ",\"objects\":%" PRIu64 "}\n",
                    E.TimeNs, E.V0, E.V1);
      break;
    case EventKind::GcCycleEnd:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"gc-cycle-end\",\"kind\":\"%s\",\"ns\":%" PRIu64
                    ",\"live\":%" PRIu64 "}\n",
                    E.TimeNs, gcCycleKindName(E.Arg), E.V0, E.V1);
      break;
    case EventKind::TcfreeFreed:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"tcfree\",\"outcome\":\"freed\",\"source\":\"%s\","
                    "\"bytes\":%" PRIu64 "}\n",
                    E.TimeNs, freeSourceName(E.Arg), E.V0);
      break;
    case EventKind::TcfreeGiveUp:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"tcfree\",\"outcome\":\"give-up\",\"reason\":\"%s\","
                    "\"count\":%" PRIu64 "}\n",
                    E.TimeNs,
                    giveUpReasonName((GiveUpReason)E.Arg), E.V0);
      break;
    case EventKind::HeapAlloc:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"alloc\",\"where\":\"heap\",\"cat\":\"%s\","
                    "\"bytes\":%" PRIu64 ",\"large\":%s}\n",
                    E.TimeNs, allocCatName(E.Arg), E.V0,
                    E.V1 ? "true" : "false");
      break;
    case EventKind::StackAlloc:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"alloc\",\"where\":\"stack\",\"cat\":\"%s\","
                    "\"bytes\":%" PRIu64 "}\n",
                    E.TimeNs, allocCatName(E.Arg), E.V0);
      break;
    case EventKind::PassTime:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"pass\",\"pass\":\"%s\",\"ns\":%" PRIu64
                    "}\n",
                    E.TimeNs, passName((Pass)E.Arg), E.V0);
      break;
    case EventKind::GcMarkWorker:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"gc-mark-worker\",\"worker\":%u,\"ns\":%" PRIu64
                    ",\"objects\":%" PRIu64 "}\n",
                    E.TimeNs, (unsigned)E.Arg, E.V0, E.V1);
      break;
    case EventKind::GcSweepLazy:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"gc-sweep-lazy\",\"where\":\"%s\",\"bytes\":%" PRIu64
                    ",\"objects\":%" PRIu64 "}\n",
                    E.TimeNs, sweepWhereName(E.Arg), E.V0, E.V1);
      break;
    case EventKind::GcStwFlip:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"gc-stw-flip\",\"flip\":\"%s\",\"ns\":%" PRIu64
                    ",\"roots\":%" PRIu64 "}\n",
                    E.TimeNs, E.Arg ? "final" : "initial", E.V0, E.V1);
      break;
    case EventKind::GcConcMark:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"gc-conc-mark\",\"ns\":%" PRIu64
                    ",\"bytes\":%" PRIu64 "}\n",
                    E.TimeNs, E.V0, E.V1);
      break;
    case EventKind::GcAssist:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"gc-assist\",\"bytes\":%" PRIu64
                    ",\"ns\":%" PRIu64 "}\n",
                    E.TimeNs, E.V0, E.V1);
      break;
    case EventKind::Request:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64
                    ",\"ev\":\"request\",\"profile\":%u,\"latency_ns\":%" PRIu64
                    ",\"stall_ns\":%" PRIu64 "}\n",
                    E.TimeNs, (unsigned)E.Arg, E.V0, E.V1);
      break;
    default:
      std::snprintf(Line, Size,
                    ",\"t\":%" PRIu64 ",\"ev\":\"unknown\",\"kind\":%u}\n",
                    E.TimeNs, (unsigned)E.Kind);
      break;
  }
}

static void writeTraceEnd(std::ostream &Os, size_t Events, uint64_t Dropped,
                          const char *Leg) {
  char Line[192];
  int N = formatPrefix(Line, sizeof(Line), Leg);
  std::snprintf(Line + N, sizeof(Line) - (size_t)N,
                ",\"ev\":\"trace-end\",\"events\":%zu,\"dropped\":%" PRIu64
                "}\n",
                Events, Dropped);
  Os << Line;
}

void writeJsonLines(std::ostream &Os, const std::vector<Event> &Events,
                    uint64_t Dropped, const char *Leg) {
  char Line[320];
  for (const Event &E : Events) {
    formatEvent(Line, sizeof(Line), E, Leg);
    Os << Line;
  }
  writeTraceEnd(Os, Events.size(), Dropped, Leg);
}

static double ms(uint64_t Nanos) { return (double)Nanos / 1e6; }

void printSummary(FILE *Out, const TraceSummary &S) {
  std::fprintf(Out, "trace summary (%" PRIu64 " events", S.Events);
  if (S.DroppedEvents)
    std::fprintf(Out, ", %" PRIu64 " dropped", S.DroppedEvents);
  std::fprintf(Out, ")\n");
  // Per-producer drop breakdown (hub summaries only): a drop count is not
  // just lost volume, it is a *biased* stream -- the overflowed thread's
  // events are the missing ones -- so name the guilty sink.
  if (!S.DroppedBySink.empty() && S.DroppedEvents)
    for (size_t I = 0; I < S.DroppedBySink.size(); ++I)
      if (S.DroppedBySink[I])
        std::fprintf(Out, "    dropped by sink %zu: %" PRIu64 "\n", I,
                     S.DroppedBySink[I]);
  if (S.Requests)
    std::fprintf(Out,
                 "  requests: %" PRIu64 " served, %.3f ms latency total "
                 "(%.3f ms mean), %.3f ms allocation stall\n",
                 S.Requests, ms(S.RequestLatencyNanos),
                 ms(S.RequestLatencyNanos) / (double)S.Requests,
                 ms(S.RequestStallNanos));

  std::fprintf(Out,
               "  gc: %" PRIu64 " pace triggers, %" PRIu64
               " cycles (%.3f ms total, %.3f ms marking), swept %" PRIu64
               " objects / %" PRIu64 " bytes\n",
               S.GcPaceTriggers, S.GcCycles, ms(S.GcCycleNanos),
               ms(S.GcMarkNanos), S.GcSweptObjects, S.GcSweptBytes);
  if (S.GcCyclesByKind[1])
    std::fprintf(Out,
                 "  gc cycles by kind: %" PRIu64 " full, %" PRIu64
                 " zct-drain\n",
                 S.GcCyclesByKind[0], S.GcCyclesByKind[1]);
  if (S.GcMarkWorkersSeen)
    std::fprintf(Out,
                 "  gc workers: %" PRIu64 " worker-cycles, %.3f ms busy\n",
                 S.GcMarkWorkersSeen, ms(S.GcMarkWorkerNanos));
  if (S.GcLazySweeps)
    std::fprintf(Out, "  gc lazy sweeps: %" PRIu64 " spans outside the pause\n",
                 S.GcLazySweeps);
  if (S.GcStwFlips)
    std::fprintf(Out,
                 "  gc concurrent: %" PRIu64 " flips (%.3f ms paused), %" PRIu64
                 " mark windows (%.3f ms mutators running), %" PRIu64
                 " assists (%" PRIu64 " bytes)\n",
                 S.GcStwFlips, ms(S.GcStwFlipNanos), S.GcConcMarks,
                 ms(S.GcConcMarkNanos), S.GcAssists, S.GcAssistBytes);

  std::fprintf(Out,
               "  tcfree: %" PRIu64 " freed (%" PRIu64 " bytes), %" PRIu64
               " give-ups\n",
               S.TcfreeFreedCount, S.TcfreeFreedBytes, S.GiveUps);
  for (int I = 0; I < NumFreeSources; ++I)
    if (S.FreedCountBySource[I])
      std::fprintf(Out, "    freed %-12s %10" PRIu64 "  (%" PRIu64 " bytes)\n",
                   freeSourceName((uint8_t)I), S.FreedCountBySource[I],
                   S.FreedBytesBySource[I]);
  for (int I = 0; I < NumGiveUpReasons; ++I)
    if (S.GiveUpsByReason[I])
      std::fprintf(Out, "    give-up %-12s %8" PRIu64 "\n",
                   giveUpReasonName((GiveUpReason)I), S.GiveUpsByReason[I]);

  for (int I = 0; I < NumAllocCats; ++I)
    if (S.HeapAllocCount[I] || S.StackAllocCount[I])
      std::fprintf(Out,
                   "  alloc %-6s heap %10" PRIu64 " (%" PRIu64
                   " bytes)  stack %10" PRIu64 "\n",
                   allocCatName((uint8_t)I), S.HeapAllocCount[I],
                   S.HeapAllocBytes[I], S.StackAllocCount[I]);

  bool AnyPass = false;
  for (int I = 0; I < NumPasses; ++I)
    AnyPass |= S.PassSeen[I];
  if (AnyPass) {
    std::fprintf(Out, "  compiler passes:\n");
    for (int I = 0; I < NumPasses; ++I)
      if (S.PassSeen[I])
        std::fprintf(Out, "    %-13s %10.3f ms\n", passName((Pass)I),
                     ms(S.PassNanos[I]));
  }
}

void printSummaryDiff(FILE *Out, const char *NameA, const TraceSummary &A,
                      const char *NameB, const TraceSummary &B) {
  std::fprintf(Out, "trace diff: %s vs %s\n", NameA, NameB);
  std::fprintf(Out, "  %-24s %14s %14s\n", "", NameA, NameB);
  std::fprintf(Out, "  %-24s %14" PRIu64 " %14" PRIu64, "gc cycles",
               A.GcCycles, B.GcCycles);
  if (B.GcCycles < A.GcCycles)
    std::fprintf(Out, "   (%" PRIu64 " avoided)", A.GcCycles - B.GcCycles);
  std::fprintf(Out, "\n");
  // Per-kind breakdown, shown only when a partial collector ran on either
  // side (a marksweep-vs-marksweep diff stays as terse as in v1).
  if (A.GcCyclesByKind[1] || B.GcCyclesByKind[1])
    for (int K = 0; K < 2; ++K) {
      if (!A.GcCyclesByKind[K] && !B.GcCyclesByKind[K])
        continue;
      char Label[32];
      std::snprintf(Label, sizeof(Label), "  cycles %s",
                    gcCycleKindName((uint8_t)K));
      std::fprintf(Out, "  %-24s %14" PRIu64 " %14" PRIu64 "\n", Label,
                   A.GcCyclesByKind[K], B.GcCyclesByKind[K]);
    }
  std::fprintf(Out, "  %-24s %14.3f %14.3f\n", "gc time (ms)",
               ms(A.GcCycleNanos), ms(B.GcCycleNanos));
  std::fprintf(Out, "  %-24s %14" PRIu64 " %14" PRIu64 "\n", "tcfree freed",
               A.TcfreeFreedCount, B.TcfreeFreedCount);
  std::fprintf(Out, "  %-24s %14" PRIu64 " %14" PRIu64 "\n", "tcfree give-ups",
               A.GiveUps, B.GiveUps);
  for (int I = 0; I < NumGiveUpReasons; ++I) {
    if (!A.GiveUpsByReason[I] && !B.GiveUpsByReason[I])
      continue;
    char Label[32];
    std::snprintf(Label, sizeof(Label), "  give-up %s",
                  giveUpReasonName((GiveUpReason)I));
    std::fprintf(Out, "  %-24s %14" PRIu64 " %14" PRIu64 "\n", Label,
                 A.GiveUpsByReason[I], B.GiveUpsByReason[I]);
  }
  for (int I = 0; I < NumPasses; ++I) {
    if (!A.PassSeen[I] && !B.PassSeen[I])
      continue;
    char Label[32];
    std::snprintf(Label, sizeof(Label), "pass %s (ms)", passName((Pass)I));
    std::fprintf(Out, "  %-24s %14.3f %14.3f\n", Label, ms(A.PassNanos[I]),
                 ms(B.PassNanos[I]));
  }
}

} // namespace trace
} // namespace gofree
