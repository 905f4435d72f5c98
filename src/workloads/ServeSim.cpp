//===- workloads/ServeSim.cpp - Open-loop request-serving harness ---------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Structure of a run:
//
//   1. Compile the handler profiles once (hugo / gojson / badger, in the
//      requested mode) and precompute the whole request stream from the
//      seed: Poisson arrival offsets, Zipfian session keys, profile picks
//      and handler arguments. Nothing downstream depends on thread timing,
//      so the workload is byte-identical across collector configurations.
//
//   2. Build the long-lived session cache on a shared heap and pin it with
//      a root scanner: CacheSlots 64-byte session objects, each holding a
//      pointer slot (the current digest) and a hit counter. This is the
//      old-generation heap a production server carries between requests.
//
//   3. Start N workers. Each claims request ids from a shared cursor,
//      sleeps until the request's scheduled arrival (outside its
//      MutatorScope -- a registered mutator that sleeps would stall every
//      stop-the-world), then serves it: session touch (fresh digest stored
//      through the write barrier; the old digest becomes GC-only garbage),
//      one MiniGo handler run sized by the precomputed argument, latency
//      measured from the scheduled arrival, allocation stalls from
//      Heap::threadStalls deltas.
//
// The Zipf sampler is Gray's method as popularized by YCSB; the constants
// are precomputed once so sampling is a handful of flops.
//
//===----------------------------------------------------------------------===//

#include "workloads/ServeSim.h"

#include "support/Rng.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

using namespace gofree;
using namespace gofree::workloads;
using compiler::Compilation;
using compiler::CompileMode;

namespace {

/// {digest ptr, hit count, 6 payload words}: one session-cache entry.
const rt::TypeDesc *sessionDesc() {
  static const rt::TypeDesc D{"session", 64, false, nullptr,
                              {{0, rt::SlotKind::Raw}}};
  return &D;
}

/// Pins the session cache for the whole run (the long-lived heap).
class SessionRoots : public rt::RootScanner {
public:
  std::vector<uintptr_t> Sessions;
  void scanRoots(rt::Heap &H) override {
    for (uintptr_t A : Sessions)
      H.gcMarkAddr(A);
  }
};

/// Zipf(theta) sampler over [0, N) -- Gray's method (YCSB's generator).
/// Deterministic given the Rng; all constants precomputed.
class ZipfGen {
public:
  ZipfGen(uint64_t N, double Theta) : N(N), Theta(Theta) {
    double Zeta2 = 0, ZetaN = 0;
    for (uint64_t I = 1; I <= 2 && I <= N; ++I)
      Zeta2 += 1.0 / std::pow((double)I, Theta);
    for (uint64_t I = 1; I <= N; ++I)
      ZetaN += 1.0 / std::pow((double)I, Theta);
    this->ZetaN = ZetaN;
    Alpha = 1.0 / (1.0 - Theta);
    Eta = (1.0 - std::pow(2.0 / (double)N, 1.0 - Theta)) /
          (1.0 - Zeta2 / ZetaN);
  }

  uint64_t sample(Rng &R) const {
    double U = R.unit();
    double Uz = U * ZetaN;
    if (Uz < 1.0)
      return 0;
    if (Uz < 1.0 + std::pow(0.5, Theta))
      return 1;
    uint64_t K = (uint64_t)((double)N * std::pow(Eta * U - Eta + 1.0, Alpha));
    return K >= N ? N - 1 : K;
  }

private:
  uint64_t N;
  double Theta, ZetaN, Alpha, Eta;
};

/// One precomputed request.
struct Request {
  uint64_t ArrivalNs; ///< Offset from the run's start epoch.
  uint64_t Session;   ///< Zipfian session key.
  uint8_t Profile;    ///< Index into the compiled profiles.
  int64_t Arg;        ///< Handler argument (per-request work size).
};

/// The three handler profiles, in Request::Profile order.
constexpr const char *ProfileNames[3] = {"hugo", "gojson", "badger"};

/// Per-request handler sizing: small enough that a request is
/// milliseconds, varied so consecutive requests differ (K is the request
/// id, so the stream -- and the checksum -- is seed-deterministic).
int64_t handlerArg(uint8_t Profile, uint64_t K) {
  switch (Profile) {
  case 0:
    return 1 + (int64_t)(K % 3); // hugo: pages rendered.
  case 1:
    return 2 + (int64_t)(K % 4); // gojson: documents parsed.
  default:
    return 60 + (int64_t)(K % 5) * 30; // badger: KV operations.
  }
}

uint64_t nowNanosSince(std::chrono::steady_clock::time_point Epoch) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

} // namespace

uint64_t ServeSimResult::percentileNs(const std::vector<uint64_t> &V,
                                      double Q) {
  if (V.empty())
    return 0;
  std::vector<uint64_t> S(V);
  std::sort(S.begin(), S.end());
  // Rank-ceil(Q*N), 1-based, same convention as rt::pausePercentileUs.
  uint64_t Rank = (uint64_t)(Q * (double)S.size());
  if ((double)Rank < Q * (double)S.size())
    ++Rank;
  if (Rank < 1)
    Rank = 1;
  if (Rank > S.size())
    Rank = S.size();
  return S[Rank - 1];
}

ServeSimResult gofree::workloads::runServeSim(const ServeSimOptions &Opts) {
  ServeSimResult Res;
  Res.OpenLoop = Opts.OfferedRps > 0.0;

  // --- 1. Compile the profiles and precompute the request stream. ---
  compiler::CompileOptions CO;
  CO.Mode = Opts.Mode;
  Compilation Profiles[3];
  vm::Module Modules[3];
  for (int P = 0; P < 3; ++P) {
    Profiles[P] = compiler::compile(subjectWorkload(ProfileNames[P]).Source, CO);
    if (!Profiles[P].ok()) {
      Res.Error = "compile error (" + std::string(ProfileNames[P]) +
                  "): " + Profiles[P].Errors;
      return Res;
    }
    Modules[P] = vm::compileProgram(*Profiles[P].Prog);
  }

  uint64_t NumReq = Opts.Requests;
  uint64_t Sessions = std::max<uint64_t>(Opts.Sessions, 1);
  uint64_t Slots = std::max<uint64_t>(Opts.CacheSlots, 1);
  int Workers = std::max(Opts.Workers, 1);

  std::vector<Request> Reqs(NumReq);
  {
    // Separate streams so e.g. changing the profile mix never perturbs
    // the arrival schedule.
    Rng ArrivalRng(Opts.Seed);
    Rng KeyRng(Opts.Seed + 0x9e3779b97f4a7c15ULL);
    Rng PickRng(Opts.Seed + 0x2545f4914f6cdd1dULL);
    ZipfGen Zipf(Sessions, Opts.ZipfTheta);
    int FixedProfile = -1;
    for (int P = 0; P < 3; ++P)
      if (Opts.Profile == ProfileNames[P])
        FixedProfile = P;
    double ArrivalNs = 0;
    for (uint64_t I = 0; I < NumReq; ++I) {
      if (Opts.OfferedRps > 0) {
        // Poisson process: exponential inter-arrivals at the offered rate.
        double U = ArrivalRng.unit();
        if (U <= 0)
          U = 1e-12;
        ArrivalNs += -std::log(U) * (1e9 / Opts.OfferedRps);
      }
      Reqs[I].ArrivalNs = (uint64_t)ArrivalNs;
      Reqs[I].Session = Zipf.sample(KeyRng);
      Reqs[I].Profile =
          FixedProfile >= 0 ? (uint8_t)FixedProfile : (uint8_t)PickRng.below(3);
      Reqs[I].Arg = handlerArg(Reqs[I].Profile, I);
    }
  }

  // --- 2. Shared heap + long-lived session cache. ---
  rt::HeapOptions HO = Opts.Heap;
  if (HO.NumCaches < Workers)
    HO.NumCaches = Workers;
  rt::Heap Heap(HO);
  SessionRoots Roots;
  Heap.addRootScanner(&Roots);
  Roots.Sessions.reserve(Slots);
  for (uint64_t S = 0; S < Slots; ++S) {
    uintptr_t A = Heap.allocate(64, sessionDesc(), rt::AllocCat::Other, 0);
    if (!A) {
      Res.Error = "session cache allocation failed";
      Heap.removeRootScanner(&Roots);
      return Res;
    }
    Roots.Sessions.push_back(A);
  }

  // --- 3. Serve. ---
  Res.LatencyNs.assign(NumReq, 0);
  Res.StallNs.assign(NumReq, 0);
  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Checksum{0};
  std::mutex ErrMu;
  std::string FirstError;

  interp::InterpOptions BaseIO;
  BaseIO.MigrationPeriod = 0;
  // Stock Go has no tcfree at all, runtime-side optimizations included
  // (same rule as compiler::execute).
  if (Opts.Mode == CompileMode::Go) {
    BaseIO.Map.GrowFreeOld = false;
    BaseIO.Slice.FreeOldOnGrow = false;
  }

  auto Epoch = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Pool;
    Pool.reserve((size_t)Workers);
    for (int W = 0; W < Workers; ++W) {
      Pool.emplace_back([&, W] {
        trace::TraceSink *Sink = Opts.Hub ? Opts.Hub->makeSink() : nullptr;
        interp::InterpOptions IO = BaseIO;
        IO.CacheId = W;
        // One Vm per profile per worker, built before any MutatorScope:
        // Vm construction registers a root scanner, and scanner add/remove
        // must never run while registered as a mutator. Vms are re-runnable,
        // so each request reuses the profile's instance.
        vm::Vm *Vms[3];
        vm::Vm V0(*Profiles[0].Prog, Profiles[0].Analysis, Heap, IO, Modules[0]);
        vm::Vm V1(*Profiles[1].Prog, Profiles[1].Analysis, Heap, IO, Modules[1]);
        vm::Vm V2(*Profiles[2].Prog, Profiles[2].Analysis, Heap, IO, Modules[2]);
        Vms[0] = &V0;
        Vms[1] = &V1;
        Vms[2] = &V2;
        uint64_t LocalChecksum = 0;
        for (;;) {
          uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= NumReq)
            break;
          const Request &Rq = Reqs[I];
          // Open-loop arrival wait, OUTSIDE the mutator scope: a parked-
          // in-sleep registered mutator would stall every STW handshake.
          if (Res.OpenLoop) {
            while (nowNanosSince(Epoch) < Rq.ArrivalNs) {
              uint64_t Left = Rq.ArrivalNs - nowNanosSince(Epoch);
              if (Left > 2'000'000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(Left - 1'000'000));
              else
                std::this_thread::yield();
            }
          }
          rt::Heap::ThreadStalls Before = rt::Heap::threadStalls();
          uint64_t ServiceStart = nowNanosSince(Epoch);
          interp::RunResult RR;
          {
            rt::Heap::MutatorScope Scope(Heap, W, Sink);
            // Session touch: bump the hit counter, install a fresh digest
            // through the write barrier. The displaced digest has no
            // tcfree site -- it is exactly the long-lived-heap churn that
            // only the collector reclaims.
            uintptr_t Sess = Roots.Sessions[Rq.Session % Slots];
            rt::storeWordRelaxed(Sess + 8, rt::loadWordRelaxed(Sess + 8) + 1);
            size_t DigestBytes = 32 + (size_t)(I % 4) * 32;
            uintptr_t Digest = Heap.allocate(DigestBytes, nullptr,
                                             rt::AllocCat::Other, W);
            if (Digest) {
              Heap.gcWriteBarrier(Sess, Digest);
              rt::storeWordRelaxed(Sess, Digest);
            }
            // The per-request handler: all its garbage dies at scope end,
            // which is GoFree's headline scenario.
            RR = Vms[Rq.Profile]->run("main", {Rq.Arg});
          }
          uint64_t End = nowNanosSince(Epoch);
          rt::Heap::ThreadStalls After = rt::Heap::threadStalls();
          uint64_t Stall = (After.GcParkNanos - Before.GcParkNanos) +
                           (After.GcAssistNanos - Before.GcAssistNanos);
          // Latency from the scheduled arrival when open-loop (queueing
          // delay included -- the coordinated-omission-safe measurement),
          // from service start when closed-loop.
          uint64_t From = Res.OpenLoop ? Rq.ArrivalNs : ServiceStart;
          Res.LatencyNs[I] = End > From ? End - From : 0;
          Res.StallNs[I] = Stall;
          LocalChecksum += RR.Checksum;
          if (Sink)
            Sink->emit(trace::EventKind::Request, Rq.Profile,
                       Res.LatencyNs[I], Stall);
          if (!RR.ok()) {
            std::lock_guard<std::mutex> Lock(ErrMu);
            if (FirstError.empty())
              FirstError = std::string(ProfileNames[Rq.Profile]) +
                           " handler failed on request " + std::to_string(I) +
                           ": " +
                           (RR.Panicked
                                ? "panic: " + std::to_string(RR.PanicValue)
                            : RR.OutOfFuel ? std::string("out of fuel")
                                           : RR.Error);
          }
        }
        Checksum.fetch_add(LocalChecksum, std::memory_order_relaxed);
        // Fold this worker's stall counters into the run totals. The
        // counters are thread-lifetime-monotonic, but these workers are
        // born for this run, so their absolute values are the run's.
        rt::Heap::ThreadStalls St = rt::Heap::threadStalls();
        std::lock_guard<std::mutex> Lock(ErrMu);
        Res.GcParkNanos += St.GcParkNanos;
        Res.GcParks += St.GcParks;
        Res.GcAssistNanos += St.GcAssistNanos;
        Res.TcfreeGiveUps += St.TcfreeGiveUps;
      });
    }
    for (std::thread &T : Pool)
      T.join();
  }
  Res.WallSeconds = (double)nowNanosSince(Epoch) * 1e-9;
  Res.Requests = NumReq;
  Res.AchievedRps = Res.WallSeconds > 0 ? (double)NumReq / Res.WallSeconds : 0;
  Res.Checksum = Checksum.load(std::memory_order_relaxed);
  Res.Error = FirstError;
  Res.Stats = Heap.stats().snap();
  Res.GcBackend = Heap.gcBackend().name();
  if (Res.Error.empty())
    Res.Error = Heap.invariantFailure();
  Heap.removeRootScanner(&Roots);
  return Res;
}
