//===- support/Trace.cpp - Event tracing and metrics sink ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
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

} // namespace trace
} // namespace gofree
