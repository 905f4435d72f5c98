//===- compiler/Driver.cpp - Unified pipeline configuration ---------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "compiler/Driver.h"

#include <charconv>
#include <cinttypes>
#include <climits>
#include <cstdio>

using namespace gofree;
using namespace gofree::compiler;
using namespace gofree::compiler::driver;

namespace {

/// The single source of truth for the flag grammar: parseFlag dispatches
/// on these names and usageText prints them, so the two cannot drift
/// (tests/DriverTest.cpp round-trips every row).
struct FlagSpec {
  const char *Name;  ///< Without the leading "--".
  const char *Value; ///< Value syntax for usage, or "" for boolean flags.
  const char *Help;
};

constexpr FlagSpec Specs[] = {
    {"mode", "go|gofree", "pipeline to compile with (default gofree)"},
    {"engine", "vm|ast", "execution engine: bytecode VM or tree-walker "
                         "(default vm)"},
    {"entry", "NAME", "entry function (default main)"},
    {"targets", "all|sm|none", "free targets (default sm = slices and maps)"},
    {"gc", "BACKEND[,KEY=V...]",
     "collector: marksweep|rc + gogc/min-trigger/workers/eager-sweep/"
     "verify/zct-threshold/conc/chaos keys"},
    {"mock", "off|zero|flip", "poisoning tcfree (robustness testing)"},
    {"num-threads", "N", "run N real mutator threads (checksums add)"},
    {"max-steps", "N", "interpreter fuel budget"},
    {"migration-period", "N",
     "rotate the thread-cache id every N steps (single-threaded only)"},
};

bool parseI64(std::string_view V, int64_t &Out) {
  const char *First = V.data(), *Last = V.data() + V.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return Ec == std::errc() && Ptr == Last && !V.empty();
}

FlagParse invalid(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return FlagParse::Invalid;
}

/// Applies one `--gc=` config string to \p Cfg. Grammar: comma-separated
/// tokens; a token without '=' names the backend, `key=val` tokens set one
/// knob each. Only mentioned fields change, so a leg's flags compose with
/// flags layered before it (the fuzz harness relies on this).
bool parseGcConfig(std::string_view Spec, rt::GcConfig &Cfg,
                   std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    invalid(Err, "--gc: " + Msg);
    return false;
  };
  while (!Spec.empty()) {
    size_t Comma = Spec.find(',');
    std::string_view Tok = Spec.substr(0, Comma);
    Spec = Comma == std::string_view::npos ? std::string_view()
                                           : Spec.substr(Comma + 1);
    if (Tok.empty())
      return Fail("empty token");
    size_t Eq = Tok.find('=');
    if (Eq == std::string_view::npos) {
      if (!rt::parseGcBackendKind(Tok, Cfg.Backend))
        return Fail("unknown backend '" + std::string(Tok) +
                    "' (expected marksweep|rc)");
      continue;
    }
    std::string Key(Tok.substr(0, Eq)), Val(Tok.substr(Eq + 1));
    int64_t IV = 0;
    bool IsInt = parseI64(Val, IV);
    auto WantInt = [&]() {
      if (!IsInt)
        Fail(Key + ": '" + Val + "' is not an integer");
      return IsInt;
    };
    auto WantNonNeg = [&]() {
      if (!WantInt())
        return false;
      if (IV >= 0)
        return true;
      Fail(Key + ": must be non-negative");
      return false;
    };
    if (Key == "gogc") {
      if (!WantInt())
        return false;
      if (IV < INT_MIN || IV > INT_MAX)
        return Fail("gogc: out of int range");
      Cfg.Gogc = (int)IV;
    } else if (Key == "min-trigger") {
      if (!WantNonNeg())
        return false;
      Cfg.MinHeapTrigger = (uint64_t)IV;
    } else if (Key == "workers") {
      if (!WantInt())
        return false;
      if (IV < 1 || IV > 256)
        return Fail("workers: must be in [1, 256]");
      Cfg.Workers = (int)IV;
    } else if (Key == "eager-sweep") {
      if (Val == "1" || Val == "true")
        Cfg.EagerSweep = true;
      else if (Val == "0" || Val == "false")
        Cfg.EagerSweep = false;
      else
        return Fail("eager-sweep: expected 0|1");
    } else if (Key == "verify") {
      if (Val == "1" || Val == "true")
        Cfg.Verify = true;
      else if (Val == "0" || Val == "false")
        Cfg.Verify = false;
      else
        return Fail("verify: expected 0|1");
    } else if (Key == "zct-threshold") {
      if (!WantInt())
        return false;
      if (IV < 1)
        return Fail("zct-threshold: must be positive");
      Cfg.ZctThreshold = (uint64_t)IV;
    } else if (Key == "conc") {
      if (Val == "1" || Val == "true" || Val == "on")
        Cfg.Concurrent = true;
      else if (Val == "0" || Val == "false" || Val == "off")
        Cfg.Concurrent = false;
      else
        return Fail("conc: expected 0|1|on|off");
    } else if (Key == "chaos") {
      if (!WantNonNeg())
        return false;
      Cfg.TcfreeChaos = (uint64_t)IV;
    } else {
      return Fail("unknown key '" + Key + "'");
    }
  }
  return true;
}

} // namespace

FlagParse gofree::compiler::driver::parseFlag(std::string_view Flag,
                                              PipelineOptions &Opts,
                                              std::string *Err) {
  if (Flag.rfind("--", 0) != 0)
    return FlagParse::Unknown;
  std::string_view Body = Flag.substr(2);
  std::string_view Name = Body, Value;
  if (size_t Eq = Body.find('='); Eq != std::string_view::npos) {
    Name = Body.substr(0, Eq);
    Value = Body.substr(Eq + 1);
  }
  std::string N(Name), V(Value);

  auto WantValue = [&](FlagParse &Out) {
    if (!Value.empty())
      return true;
    Out = invalid(Err, "--" + N + " requires a value");
    return false;
  };
  auto WantInt = [&](int64_t &IV, FlagParse &Out) {
    if (!WantValue(Out))
      return false;
    if (parseI64(Value, IV))
      return true;
    Out = invalid(Err, "--" + N + ": '" + V + "' is not an integer");
    return false;
  };
  FlagParse Bad = FlagParse::Invalid;

  if (N == "mode") {
    if (!WantValue(Bad))
      return Bad;
    if (V == "go")
      Opts.Compile.Mode = CompileMode::Go;
    else if (V == "gofree")
      Opts.Compile.Mode = CompileMode::GoFree;
    else
      return invalid(Err, "--mode: expected go|gofree, got '" + V + "'");
    return FlagParse::Ok;
  }
  if (N == "engine") {
    if (!WantValue(Bad))
      return Bad;
    if (V == "vm")
      Opts.Exec.Engine = ExecEngine::Vm;
    else if (V == "ast")
      Opts.Exec.Engine = ExecEngine::Ast;
    else
      return invalid(Err, "--engine: expected vm|ast, got '" + V + "'");
    return FlagParse::Ok;
  }
  if (N == "entry") {
    if (!WantValue(Bad))
      return Bad;
    Opts.Entry = V;
    return FlagParse::Ok;
  }
  if (N == "targets") {
    if (!WantValue(Bad))
      return Bad;
    if (V == "all")
      Opts.Compile.Targets = escape::FreeTargets::All;
    else if (V == "sm")
      Opts.Compile.Targets = escape::FreeTargets::SlicesAndMaps;
    else if (V == "none")
      Opts.Compile.Targets = escape::FreeTargets::None;
    else
      return invalid(Err, "--targets: expected all|sm|none, got '" + V + "'");
    return FlagParse::Ok;
  }
  if (N == "gc") {
    if (!WantValue(Bad))
      return Bad;
    if (!parseGcConfig(Value, Opts.Exec.Heap.Gc, Err))
      return FlagParse::Invalid;
    return FlagParse::Ok;
  }
  if (N == "mock") {
    if (!WantValue(Bad))
      return Bad;
    if (V == "off")
      Opts.Exec.Heap.Mock = rt::MockTcfree::Off;
    else if (V == "zero")
      Opts.Exec.Heap.Mock = rt::MockTcfree::Zero;
    else if (V == "flip")
      Opts.Exec.Heap.Mock = rt::MockTcfree::Flip;
    else
      return invalid(Err, "--mock: expected off|zero|flip, got '" + V + "'");
    return FlagParse::Ok;
  }
  if (N == "num-threads") {
    int64_t IV;
    if (!WantInt(IV, Bad))
      return Bad;
    if (IV < 1 || IV > 1024)
      return invalid(Err, "--num-threads: must be in [1, 1024]");
    Opts.Exec.NumThreads = (int)IV;
    return FlagParse::Ok;
  }
  if (N == "max-steps") {
    int64_t IV;
    if (!WantInt(IV, Bad))
      return Bad;
    if (IV < 1)
      return invalid(Err, "--max-steps: must be positive");
    Opts.Exec.Interp.MaxSteps = (uint64_t)IV;
    return FlagParse::Ok;
  }
  if (N == "migration-period") {
    int64_t IV;
    if (!WantInt(IV, Bad))
      return Bad;
    if (IV < 0)
      return invalid(Err, "--migration-period: must be non-negative");
    Opts.Exec.Interp.MigrationPeriod = (uint64_t)IV;
    return FlagParse::Ok;
  }
  return FlagParse::Unknown;
}

bool gofree::compiler::driver::parseFlags(
    std::initializer_list<std::string_view> Flags, PipelineOptions &Opts,
    std::string *Err) {
  for (std::string_view F : Flags) {
    switch (parseFlag(F, Opts, Err)) {
    case FlagParse::Ok:
      break;
    case FlagParse::Unknown:
      if (Err)
        *Err = "unknown flag '" + std::string(F) + "'";
      return false;
    case FlagParse::Invalid:
      return false;
    }
  }
  return true;
}

bool gofree::compiler::driver::parseFlags(const std::vector<std::string> &Flags,
                                          PipelineOptions &Opts,
                                          std::string *Err) {
  for (const std::string &F : Flags) {
    switch (parseFlag(F, Opts, Err)) {
    case FlagParse::Ok:
      break;
    case FlagParse::Unknown:
      if (Err)
        *Err = "unknown flag '" + F + "'";
      return false;
    case FlagParse::Invalid:
      return false;
    }
  }
  return true;
}

std::string gofree::compiler::driver::usageText() {
  std::string Out;
  for (const FlagSpec &S : Specs) {
    char Line[192];
    std::string Lhs = std::string("--") + S.Name;
    if (S.Value[0])
      Lhs += std::string("=") + S.Value;
    std::snprintf(Line, sizeof(Line), "  %-28s %s\n", Lhs.c_str(), S.Help);
    Out += Line;
  }
  return Out;
}

const char *gofree::compiler::driver::legName(CompileMode M) {
  return M == CompileMode::Go ? "go" : "gofree";
}

ExecOutcome gofree::compiler::driver::compileAndRun(
    const std::string &Source, const PipelineOptions &Opts,
    const std::vector<int64_t> &Args, Compilation *Compiled) {
  Compilation C = compile(Source, Opts.Compile);
  if (!C.ok()) {
    ExecOutcome O;
    O.Error = "compile error: " + C.Errors;
    if (Compiled)
      *Compiled = std::move(C);
    return O;
  }
  ExecOutcome O = execute(C, Opts.Entry, Args, Opts.Exec);
  if (Compiled)
    *Compiled = std::move(C);
  return O;
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the error field.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if ((unsigned char)Ch < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", (unsigned char)Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out;
}

} // namespace

std::string gofree::compiler::driver::outcomeJson(const ExecOutcome &O,
                                                  const char *Leg) {
  // Bound the (escaped, possibly multi-line) error so the record always
  // fits one line of fixed buffer; a truncated diagnostic still names the
  // failure class.
  std::string Err = jsonEscape(O.Error);
  if (Err.size() > 320)
    Err = Err.substr(0, 320) + "...";
  char Buf[1792];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"v\":%d,\"leg\":\"%s\",\"ok\":%s,\"error\":\"%s\","
      "\"checksum\":\"%016" PRIx64 "\",\"sinks\":%" PRIu64
      ",\"steps\":%" PRIu64 ",\"panicked\":%s,\"panic\":%lld,"
      "\"wall_s\":%.6f,\"gc_s\":%.6f,"
      "\"stats\":{\"alloced_bytes\":%" PRIu64 ",\"alloc_count\":%" PRIu64
      ",\"tcfree_calls\":%" PRIu64 ",\"tcfree_giveups\":%" PRIu64
      ",\"freed_bytes\":%" PRIu64 ",\"gc_cycles\":%" PRIu64
      ",\"peak_committed\":%" PRIu64 ",\"peak_live\":%" PRIu64 "},"
      "\"gc\":{\"backend\":\"%s\",\"major_cycles\":%" PRIu64
      ",\"barrier_hits\":%" PRIu64
      ",\"zct_drains\":%" PRIu64 ",\"conc_cycles\":%" PRIu64
      ",\"assists\":%" PRIu64 ",\"pauses\":%" PRIu64
      ",\"pause_p50_us\":%" PRIu64 ",\"pause_p99_us\":%" PRIu64
      ",\"pause_p999_us\":%" PRIu64 "}}",
      trace::JsonSchemaVersion, Leg, O.ok() ? "true" : "false",
      Err.c_str(), O.Run.Checksum, O.Run.SinkCount,
      O.Run.Steps, O.Run.Panicked ? "true" : "false",
      (long long)O.Run.PanicValue, O.WallSeconds, O.Stats.GcNanos * 1e-9,
      O.Stats.AllocedBytes, O.Stats.AllocCount, O.Stats.TcfreeCalls,
      O.Stats.TcfreeGiveUps, O.Stats.tcfreeFreedBytes(), O.Stats.GcCycles,
      O.Stats.PeakCommitted, O.Stats.PeakLive,
      O.GcBackend ? O.GcBackend : "marksweep", O.Stats.GcMajorCycles,
      O.Stats.GcBarrierHits, O.Stats.GcZctDrains,
      O.Stats.GcConcCycles, O.Stats.GcAssists, O.Stats.GcPauses,
      O.Stats.pausePercentileUs(0.50), O.Stats.pausePercentileUs(0.99),
      O.Stats.pausePercentileUs(0.999));
  return Buf;
}
