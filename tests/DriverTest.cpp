//===- tests/DriverTest.cpp - Shared pipeline flag grammar tests ----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for compiler::driver: every flag of the shared grammar round-trips
/// into PipelineOptions, invalid values are rejected with a diagnostic,
/// non-pipeline flags stay Unknown (so front ends can layer their own), and
/// compileAndRun / outcomeJson flatten outcomes the way the CLI, the bench
/// binaries, and the fuzz legs rely on. The round-trip table is
/// cross-checked against usageText() so the grammar and its docs can't
/// drift apart.
///
//===----------------------------------------------------------------------===//

#include "compiler/Driver.h"

#include <gtest/gtest.h>

#include <climits>
#include <functional>
#include <set>
#include <sstream>

using namespace gofree;
using namespace gofree::compiler;
using namespace gofree::compiler::driver;

namespace {

PipelineOptions parsedOk(const std::string &Flag) {
  PipelineOptions P;
  std::string Err;
  EXPECT_EQ(parseFlag(Flag, P, &Err), FlagParse::Ok) << Flag << ": " << Err;
  return P;
}

std::string invalidErr(const std::string &Flag) {
  PipelineOptions P;
  std::string Err;
  EXPECT_EQ(parseFlag(Flag, P, &Err), FlagParse::Invalid) << Flag;
  EXPECT_FALSE(Err.empty()) << Flag << " gave no diagnostic";
  return Err;
}

/// The flag names this suite exercises; compared against usageText() so a
/// new flag without a round-trip test fails CoversEveryUsageLine.
const std::set<std::string> &testedFlags() {
  static const std::set<std::string> Names = {
      "mode",       "engine",    "entry",      "targets",
      "gc",         "mock",      "num-threads", "max-steps",
      "migration-period",
  };
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Flag round-trips
//===----------------------------------------------------------------------===//

TEST(DriverFlagTest, ModeRoundTrips) {
  EXPECT_EQ(parsedOk("--mode=go").Compile.Mode, CompileMode::Go);
  EXPECT_EQ(parsedOk("--mode=gofree").Compile.Mode, CompileMode::GoFree);
}

TEST(DriverFlagTest, EngineRoundTrips) {
  EXPECT_EQ(parsedOk("--engine=vm").Exec.Engine, ExecEngine::Vm);
  EXPECT_EQ(parsedOk("--engine=ast").Exec.Engine, ExecEngine::Ast);
}

TEST(DriverFlagTest, EntryRoundTrips) {
  EXPECT_EQ(parsedOk("--entry=bench").Entry, "bench");
}

TEST(DriverFlagTest, TargetsRoundTrips) {
  EXPECT_EQ(parsedOk("--targets=all").Compile.Targets,
            escape::FreeTargets::All);
  EXPECT_EQ(parsedOk("--targets=sm").Compile.Targets,
            escape::FreeTargets::SlicesAndMaps);
  EXPECT_EQ(parsedOk("--targets=none").Compile.Targets,
            escape::FreeTargets::None);
}

TEST(DriverFlagTest, GcRoundTrips) {
  EXPECT_EQ(parsedOk("--gc=marksweep").Exec.Heap.Gc.Backend,
            rt::GcBackendKind::MarkSweep);
  EXPECT_EQ(parsedOk("--gc=rc").Exec.Heap.Gc.Backend, rt::GcBackendKind::Rc);
  EXPECT_EQ(parsedOk("--gc=gogc=250").Exec.Heap.Gc.Gogc, 250);
  EXPECT_EQ(parsedOk("--gc=gogc=-1").Exec.Heap.Gc.Gogc, -1); // Go-GCOff
  EXPECT_EQ(parsedOk("--gc=min-trigger=65536").Exec.Heap.Gc.MinHeapTrigger,
            65536u);
  EXPECT_EQ(parsedOk("--gc=workers=4").Exec.Heap.Gc.Workers, 4);
  EXPECT_TRUE(parsedOk("--gc=eager-sweep=1").Exec.Heap.Gc.EagerSweep);
  EXPECT_FALSE(parsedOk("--gc=eager-sweep=0").Exec.Heap.Gc.EagerSweep);
  EXPECT_TRUE(parsedOk("--gc=verify=1").Exec.Heap.Gc.Verify);
  EXPECT_EQ(parsedOk("--gc=zct-threshold=256").Exec.Heap.Gc.ZctThreshold,
            256u);
  EXPECT_TRUE(parsedOk("--gc=conc=1").Exec.Heap.Gc.Concurrent);
  EXPECT_TRUE(parsedOk("--gc=conc=on").Exec.Heap.Gc.Concurrent);
  EXPECT_FALSE(parsedOk("--gc=conc=0").Exec.Heap.Gc.Concurrent);
  EXPECT_FALSE(parsedOk("--gc=conc=off").Exec.Heap.Gc.Concurrent);
  EXPECT_EQ(parsedOk("--gc=chaos=7").Exec.Heap.Gc.TcfreeChaos, 7u);
  EXPECT_EQ(parsedOk("--gc=chaos=0").Exec.Heap.Gc.TcfreeChaos, 0u)
      << "chaos=0 disables the knob";
  // Combined form, and composition: later tokens touch only their own key.
  PipelineOptions P = parsedOk("--gc=rc,zct-threshold=8192,conc=0,verify=1");
  EXPECT_EQ(P.Exec.Heap.Gc.Backend, rt::GcBackendKind::Rc);
  EXPECT_EQ(P.Exec.Heap.Gc.ZctThreshold, 8192u);
  EXPECT_FALSE(P.Exec.Heap.Gc.Concurrent);
  EXPECT_TRUE(P.Exec.Heap.Gc.Verify);
  EXPECT_EQ(P.Exec.Heap.Gc.Gogc, 100) << "unmentioned keys keep defaults";
  std::string Err;
  ASSERT_TRUE(
      parseFlags({"--gc=rc,zct-threshold=64", "--gc=min-trigger=4096"}, P,
                 &Err))
      << Err;
  EXPECT_EQ(P.Exec.Heap.Gc.Backend, rt::GcBackendKind::Rc)
      << "a later --gc must not reset earlier tokens it does not mention";
  EXPECT_EQ(P.Exec.Heap.Gc.ZctThreshold, 64u);
  EXPECT_EQ(P.Exec.Heap.Gc.MinHeapTrigger, 4096u);
}

TEST(DriverFlagTest, MockRoundTrips) {
  EXPECT_EQ(parsedOk("--mock=off").Exec.Heap.Mock, rt::MockTcfree::Off);
  EXPECT_EQ(parsedOk("--mock=zero").Exec.Heap.Mock, rt::MockTcfree::Zero);
  EXPECT_EQ(parsedOk("--mock=flip").Exec.Heap.Mock, rt::MockTcfree::Flip);
}

TEST(DriverFlagTest, NumThreadsRoundTrips) {
  EXPECT_EQ(parsedOk("--num-threads=3").Exec.NumThreads, 3);
  EXPECT_EQ(parsedOk("--num-threads=1024").Exec.NumThreads, 1024);
}

// The pre-GcConfig spellings and --num-caches (execute sizes the caches
// from --num-threads) are gone; each must now be Unknown (so the CLI
// prints usage) rather than silently setting a field.
TEST(DriverFlagTest, RemovedFlagsAreUnknown) {
  for (const char *F :
       {"--gogc=250", "--gc-min-trigger=65536", "--gc-workers=4",
        "--gc-eager-sweep", "--verify-heap", "--num-caches=8"}) {
    PipelineOptions P;
    EXPECT_EQ(parseFlag(F, P), FlagParse::Unknown) << F;
  }
}

TEST(DriverFlagTest, MaxStepsRoundTrips) {
  EXPECT_EQ(parsedOk("--max-steps=12345").Exec.Interp.MaxSteps, 12345u);
}

TEST(DriverFlagTest, MigrationPeriodRoundTrips) {
  EXPECT_EQ(parsedOk("--migration-period=1024").Exec.Interp.MigrationPeriod,
            1024u);
  EXPECT_EQ(parsedOk("--migration-period=0").Exec.Interp.MigrationPeriod, 0u);
}

TEST(DriverFlagTest, CoversEveryUsageLine) {
  // Each usage line is "  --name[=VALUE]  help". Every advertised flag must
  // have a round-trip test above (and vice versa).
  std::set<std::string> Advertised;
  std::istringstream In(usageText());
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Dash = Line.find("--");
    ASSERT_NE(Dash, std::string::npos) << "usage line without flag: " << Line;
    size_t End = Line.find_first_of("= ", Dash + 2);
    ASSERT_NE(End, std::string::npos);
    Advertised.insert(Line.substr(Dash + 2, End - Dash - 2));
  }
  EXPECT_EQ(Advertised, testedFlags())
      << "usageText and the round-trip table disagree; update both";
}

//===----------------------------------------------------------------------===//
// Invalid values and unknown flags
//===----------------------------------------------------------------------===//

TEST(DriverFlagTest, RejectsBadValues) {
  EXPECT_NE(invalidErr("--mode=xyz").find("go|gofree"), std::string::npos);
  EXPECT_NE(invalidErr("--targets=slices").find("all|sm|none"),
            std::string::npos);
  EXPECT_NE(invalidErr("--gc=tricolor").find("marksweep|rc"),
            std::string::npos);
  // The deleted generational backend: its names are unknown backends and
  // its keys unknown keys.
  EXPECT_NE(invalidErr("--gc=generational").find("marksweep|rc"),
            std::string::npos);
  EXPECT_NE(invalidErr("--gc=gen").find("marksweep|rc"), std::string::npos);
  invalidErr("--gc=nursery=8192");
  invalidErr("--gc=promote-after=1");
  invalidErr("--gc=gogc=abc");
  invalidErr("--gc=min-trigger=-1");
  invalidErr("--gc=workers=0");
  invalidErr("--gc=workers=257");
  invalidErr("--gc=eager-sweep=banana");
  invalidErr("--gc=verify=banana");
  invalidErr("--gc=zct-threshold=0");
  invalidErr("--gc=conc=banana");
  invalidErr("--gc=chaos=-1");
  invalidErr("--gc=chaos=sometimes");
  invalidErr("--gc=color=blue");
  invalidErr("--gc=rc,,verify=1");
  invalidErr("--gc");
  invalidErr("--gc=");
  invalidErr("--mock=poison");
  invalidErr("--num-threads=0");
  invalidErr("--num-threads=1025");
  invalidErr("--max-steps=0");
  invalidErr("--migration-period=-5");
  // Missing values.
  invalidErr("--mode");
  invalidErr("--mode=");
  invalidErr("--entry=");
  invalidErr("--num-threads");
}

// gogc is stored as int, so a value outside the int range must be
// rejected, not wrapped: gogc=4294967295 would wrap to -1 (collector off).
TEST(DriverFlagTest, GcIntKeysRejectValuesOutsideIntRange) {
  EXPECT_EQ(parsedOk("--gc=gogc=2147483647").Exec.Heap.Gc.Gogc, 2147483647);
  EXPECT_EQ(parsedOk("--gc=gogc=-2147483648").Exec.Heap.Gc.Gogc, INT_MIN);
  invalidErr("--gc=gogc=2147483648");
  invalidErr("--gc=gogc=4294967295");
  invalidErr("--gc=gogc=4294967396");
  invalidErr("--gc=gogc=-2147483649");
}

TEST(DriverFlagTest, UnknownFlagsPassThrough) {
  // Front-end-only flags and non-flags must stay Unknown, untouched.
  PipelineOptions P;
  EXPECT_EQ(parseFlag("--stats", P), FlagParse::Unknown);
  EXPECT_EQ(parseFlag("--trace-out=t.jsonl", P), FlagParse::Unknown);
  EXPECT_EQ(parseFlag("--json", P), FlagParse::Unknown);
  EXPECT_EQ(parseFlag("prog.minigo", P), FlagParse::Unknown);
  EXPECT_EQ(parseFlag("-mode=go", P), FlagParse::Unknown);
}

TEST(DriverFlagTest, ParseFlagsAppliesAllOrFails) {
  PipelineOptions P;
  std::string Err;
  ASSERT_TRUE(parseFlags({"--mode=go", "--gc=gogc=-1,verify=1"}, P, &Err))
      << Err;
  EXPECT_EQ(P.Compile.Mode, CompileMode::Go);
  EXPECT_EQ(P.Exec.Heap.Gc.Gogc, -1);
  EXPECT_TRUE(P.Exec.Heap.Gc.Verify);

  PipelineOptions Q;
  EXPECT_FALSE(parseFlags({"--mode=go", "--stats"}, Q, &Err));
  EXPECT_NE(Err.find("--stats"), std::string::npos);
  EXPECT_FALSE(parseFlags({"--gc=gogc=zz"}, Q, &Err));

  std::vector<std::string> Vec = {"--num-threads=2", "--max-steps=7"};
  PipelineOptions R;
  ASSERT_TRUE(parseFlags(Vec, R, &Err)) << Err;
  EXPECT_EQ(R.Exec.NumThreads, 2);
  EXPECT_EQ(R.Exec.Interp.MaxSteps, 7u);
}

TEST(DriverFlagTest, LegNames) {
  EXPECT_STREQ(legName(CompileMode::Go), "go");
  EXPECT_STREQ(legName(CompileMode::GoFree), "gofree");
}

//===----------------------------------------------------------------------===//
// compileAndRun flattening
//===----------------------------------------------------------------------===//

namespace {

const char *OkProg = R"go(
func main(n int) {
  s := make([]int, n)
  for i := 0; i < n; i = i + 1 {
    s[i] = i * i
  }
  acc := 0
  for i := 0; i < n; i = i + 1 {
    acc = acc + s[i]
  }
  sink(acc)
}
)go";

PipelineOptions optsFor(std::initializer_list<std::string_view> Flags) {
  PipelineOptions P;
  std::string Err;
  EXPECT_TRUE(parseFlags(Flags, P, &Err)) << Err;
  return P;
}

} // namespace

TEST(DriverRunTest, OkProgramHasEmptyError) {
  ExecOutcome O = compileAndRun(OkProg, optsFor({"--mode=gofree"}), {10});
  EXPECT_TRUE(O.ok()) << O.Error;
  EXPECT_EQ(O.Run.SinkCount, 1u);
  EXPECT_NE(O.Run.Checksum, 0u);
}

TEST(DriverRunTest, CompileErrorIsFlattenedWithPrefix) {
  ExecOutcome O = compileAndRun("func main(", optsFor({"--mode=go"}), {});
  EXPECT_FALSE(O.ok());
  EXPECT_EQ(O.Error.rfind("compile error:", 0), 0u) << O.Error;
}

TEST(DriverRunTest, PanicIsFlattened) {
  ExecOutcome O = compileAndRun("func main(n int) { panic(7) }",
                                optsFor({"--mode=go"}), {1});
  EXPECT_FALSE(O.ok());
  EXPECT_TRUE(O.Run.Panicked);
  EXPECT_EQ(O.Run.PanicValue, 7);
  EXPECT_NE(O.Error.find("panic"), std::string::npos) << O.Error;
}

TEST(DriverRunTest, RuntimeFaultIsFlattened) {
  // Out-of-bounds write: a runtime fault, not a panic.
  ExecOutcome O =
      compileAndRun("func main(n int) { s := make([]int, 1)\n  s[n] = 3 }",
                    optsFor({"--mode=go"}), {5});
  EXPECT_FALSE(O.ok());
  EXPECT_FALSE(O.Run.Panicked);
  EXPECT_FALSE(O.Run.Error.empty());
  EXPECT_NE(O.Error.find(O.Run.Error), std::string::npos)
      << "flattened error should carry the interpreter fault";
}

TEST(DriverRunTest, OutOfFuelIsFlattened) {
  ExecOutcome O = compileAndRun(OkProg, optsFor({"--mode=go", "--max-steps=5"}),
                                {1000});
  EXPECT_FALSE(O.ok());
  EXPECT_TRUE(O.Run.OutOfFuel);
}

//===----------------------------------------------------------------------===//
// outcomeJson
//===----------------------------------------------------------------------===//

TEST(DriverJsonTest, CarriesSchemaVersionLegAndObservables) {
  ExecOutcome O = compileAndRun(OkProg, optsFor({"--mode=gofree"}), {10});
  ASSERT_TRUE(O.ok()) << O.Error;
  std::string J = outcomeJson(O, legName(CompileMode::GoFree));
  EXPECT_EQ(J.rfind("{\"v\":3,", 0), 0u) << J;
  EXPECT_NE(J.find("\"leg\":\"gofree\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"ok\":true"), std::string::npos) << J;
  EXPECT_NE(J.find("\"error\":\"\""), std::string::npos) << J;
  char Want[64];
  std::snprintf(Want, sizeof(Want), "\"checksum\":\"%016llx\"",
                (unsigned long long)O.Run.Checksum);
  EXPECT_NE(J.find(Want), std::string::npos) << J;
  EXPECT_NE(J.find("\"stats\":{"), std::string::npos) << J;
  // v2 addition: the gc object names the backend and its counters.
  EXPECT_NE(J.find("\"gc\":{\"backend\":\"marksweep\""),
            std::string::npos)
      << J;
  EXPECT_EQ(J.find("\"minor_cycles\""), std::string::npos)
      << "v3 dropped the deleted generational backend's key: " << J;
  EXPECT_NE(J.find("\"zct_drains\":"), std::string::npos) << J;
  // Concurrent-mark counters ride the same gc object.
  EXPECT_NE(J.find("\"conc_cycles\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"assists\":"), std::string::npos) << J;
}

TEST(DriverJsonTest, BackendNameFollowsGcFlag) {
  ExecOutcome O = compileAndRun(
      OkProg, optsFor({"--mode=gofree", "--gc=rc"}), {10});
  ASSERT_TRUE(O.ok()) << O.Error;
  EXPECT_STREQ(O.GcBackend, "rc");
  std::string J = outcomeJson(O, "gofree");
  EXPECT_NE(J.find("\"gc\":{\"backend\":\"rc\""),
            std::string::npos)
      << J;
}

TEST(DriverJsonTest, ErrorStaysOneEscapedLine) {
  // Compile diagnostics are multi-line; the JSON record must stay one line
  // with the newlines escaped.
  ExecOutcome O = compileAndRun("func main(\nfunc g() {}",
                                optsFor({"--mode=go"}), {});
  ASSERT_FALSE(O.ok());
  std::string J = outcomeJson(O, "go");
  EXPECT_EQ(J.find('\n'), std::string::npos) << J;
  EXPECT_NE(J.find("\"ok\":false"), std::string::npos) << J;
  EXPECT_NE(J.find("compile error:"), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// Chaos knob edge semantics. The parse pins above say chaos=0 round-trips;
// these pin what the *runtime* does with the edges: 0 is "off" (notably:
// no modulo-by-zero on the call-counting path), 1 forces every tcfree down
// the GcRunning give-up path.
//===----------------------------------------------------------------------===//

TEST(DriverRunTest, ChaosZeroDisablesForcing) {
  ExecOutcome O = compileAndRun(
      OkProg, optsFor({"--mode=gofree", "--gc=chaos=0"}), {64});
  ASSERT_TRUE(O.ok()) << O.Error;
  EXPECT_EQ(O.Stats.TcfreeChaosForced, 0u);
  EXPECT_GT(O.Stats.TcfreeCalls, 0u);
  EXPECT_GT(O.Stats.tcfreeFreedBytes(), 0u)
      << "chaos=0 must behave exactly like no chaos: frees happen";
}

TEST(DriverRunTest, ChaosOneForcesEveryTcfree) {
  ExecOutcome O = compileAndRun(
      OkProg, optsFor({"--mode=gofree", "--gc=chaos=1"}), {64});
  ASSERT_TRUE(O.ok()) << O.Error;
  EXPECT_GT(O.Stats.TcfreeCalls, 0u);
  EXPECT_GT(O.Stats.TcfreeChaosForced, 0u);
  EXPECT_GE(O.Stats.TcfreeGiveUps, O.Stats.TcfreeChaosForced);
  EXPECT_EQ(O.Stats.tcfreeFreedBytes(), 0u)
      << "every call was forced to give up; nothing tcfrees";
  // Give-ups only defer reclamation to the GC -- observable behavior
  // must not change.
  ExecOutcome Base = compileAndRun(OkProg, optsFor({"--mode=gofree"}), {64});
  ASSERT_TRUE(Base.ok());
  EXPECT_EQ(O.Run.Checksum, Base.Run.Checksum);
}

TEST(DriverRunTest, OutcomeJsonCarriesPausePercentiles) {
  // Force at least one GC so the percentile fields are live, then check
  // the v2 record carries them and they are ordered.
  ExecOutcome O = compileAndRun(
      OkProg, optsFor({"--mode=gofree", "--gc=min-trigger=4096"}), {4096});
  ASSERT_TRUE(O.ok()) << O.Error;
  std::string J = outcomeJson(O, "gofree");
  EXPECT_NE(J.find("\"pause_p50_us\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"pause_p99_us\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"pause_p999_us\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"pauses\":"), std::string::npos) << J;
  EXPECT_LE(O.Stats.pausePercentileUs(0.50), O.Stats.pausePercentileUs(0.99));
  EXPECT_LE(O.Stats.pausePercentileUs(0.99), O.Stats.pausePercentileUs(0.999));
  // The percentile is a conservative upper bound clamped to the observed
  // max, so it can never exceed it (sub-microsecond pauses report 0).
  EXPECT_LE(O.Stats.pausePercentileUs(0.999),
            O.Stats.GcMaxPauseNanos / 1000 + 1);
}
