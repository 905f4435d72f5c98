//===- interp/Interp.h - MiniGo tree-walking interpreter -------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes instrumented MiniGo programs against the GoFree runtime. Frames
/// hold variables in flat byte buffers with precise pointer maps; the
/// interpreter is the GC's root scanner. Stack-allocation decisions from the
/// escape analysis are honored: eligible sites allocate from a per-frame,
/// scope-rewound arena instead of the heap, and TcfreeStmt nodes call into
/// the tcfree runtime family.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_INTERP_INTERP_H
#define GOFREE_INTERP_INTERP_H

#include "escape/Analysis.h"
#include "interp/TypeLower.h"
#include "minigo/Ast.h"
#include "runtime/Heap.h"
#include "runtime/MapRt.h"
#include "runtime/SliceRt.h"
#include "runtime/WordAccess.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace gofree {
namespace interp {

/// Outcome of one program execution (the observable behavior the
/// robustness harness compares across configurations).
struct RunResult {
  uint64_t Checksum = 0;   ///< Order-sensitive fold of all sink() values.
  uint64_t SinkCount = 0;
  bool Panicked = false;
  int64_t PanicValue = 0;
  bool OutOfFuel = false;  ///< Step or recursion budget exhausted.
  uint64_t Steps = 0;
  std::string Error;       ///< Runtime fault (nil deref, bounds), if any.

  bool ok() const { return !Panicked && !OutOfFuel && Error.empty(); }
};

/// Interpreter knobs.
struct InterpOptions {
  uint64_t MaxSteps = 2'000'000'000;
  unsigned MaxFrames = 4096;
  int CacheId = 0;
  /// Simulates Go's runtime rescheduling the goroutine onto another P:
  /// every this-many interpreter steps the thread-cache id rotates, so
  /// spans cached before the switch belong to a "different thread" and
  /// tcfree exercises its ownership give-up path (section 5). 0 disables.
  /// Single-threaded runs only: with real worker threads (ExecOptions::
  /// NumThreads > 1) each thread must keep its own cache id for the
  /// ownership invariant to hold, so the pipeline forces this to 0 there
  /// (genuine cross-thread contention replaces the simulation).
  uint64_t MigrationPeriod = 0;
  /// Test hook honored by the bytecode VM only: force a full collection
  /// every this-many executed opcodes (0 disables). The GC-torture tests
  /// use it to run a collection at essentially every dispatch point,
  /// proving the operand stack and call frames root everything.
  uint64_t GcEveryNSteps = 0;
  rt::SliceRtOptions Slice;
  rt::MapRtOptions Map;
};

/// A runtime value. Struct-typed values are references to storage (frame
/// slot, temp arena, or heap); assignment copies the bytes.
struct Value {
  const minigo::Type *Ty = nullptr;
  int64_t I = 0;            ///< Int/Bool payload.
  uintptr_t A = 0;          ///< Pointer/map/struct-storage address.
  rt::SliceHeader S{0, 0, 0};
};

/// Per-frame bump arena with stable addresses, backing the stack-allocation
/// optimization. Like Go's compiler, each eligible allocation site owns one
/// fixed slot that is reused across loop iterations (Frame::SiteMem), so the
/// arena never needs to rewind before the function returns.
class FrameArena {
public:
  uintptr_t allocate(size_t Bytes);

private:
  std::vector<std::pair<std::unique_ptr<char[]>, size_t>> Slabs;
  size_t Used = 0;
};

/// Reads a typed value from storage / writes one back. Shared by the
/// tree-walking interpreter and the bytecode VM so the two engines have
/// bit-identical memory representations (struct values are storage
/// references; stores copy bytes).
/// Raw 8-byte loads/stores (every scalar slot is 8 bytes wide). Loads stay
/// plain (the concurrent markers never write object words), but stores go
/// through the relaxed atomic word store so a marker reading the slot
/// mid-store never races it; see runtime/WordAccess.h.
inline uint64_t readU64(uintptr_t Addr) {
  uint64_t V;
  std::memcpy(&V, reinterpret_cast<void *>(Addr), 8);
  return V;
}

inline void writeU64(uintptr_t Addr, uint64_t V) {
  rt::storeWordRelaxed(Addr, V);
}

inline Value loadValueAt(uintptr_t Addr, const minigo::Type *Ty) {
  Value V;
  V.Ty = Ty;
  switch (Ty->kind()) {
  case minigo::Type::TK_Int:
  case minigo::Type::TK_Bool:
    V.I = (int64_t)readU64(Addr);
    return V;
  case minigo::Type::TK_Pointer:
  case minigo::Type::TK_Map:
    V.A = readU64(Addr);
    return V;
  case minigo::Type::TK_Slice:
    std::memcpy(&V.S, reinterpret_cast<void *>(Addr), sizeof(rt::SliceHeader));
    return V;
  case minigo::Type::TK_Struct:
    V.A = Addr; // Structs are references to storage; stores copy bytes.
    return V;
  default:
    assert(false && "unloadable type");
    return V;
  }
}

inline void storeValueAt(uintptr_t Addr, const Value &V) {
  switch (V.Ty->kind()) {
  case minigo::Type::TK_Int:
  case minigo::Type::TK_Bool:
    writeU64(Addr, (uint64_t)V.I);
    return;
  case minigo::Type::TK_Pointer:
  case minigo::Type::TK_Map:
    writeU64(Addr, V.A);
    return;
  case minigo::Type::TK_Slice:
    rt::copyWordsRelaxed(Addr, reinterpret_cast<uintptr_t>(&V.S),
                         sizeof(rt::SliceHeader));
    return;
  case minigo::Type::TK_Struct:
    if (Addr != V.A)
      rt::copyWordsRelaxed(Addr, V.A, V.Ty->size());
    return;
  default:
    assert(false && "unstorable type");
  }
}

/// Barrier-aware store: notifies the heap's write barrier for every pointer
/// slot the store will overwrite, then performs the plain store. Both
/// engines route every store that may target the heap through this overload;
/// stores into frame slots also pass through, but the barrier's address-range
/// filter rejects them before any backend work. The barrier must observe the
/// slot's *old* value, so it runs strictly before the bytes move.
inline void storeValueAt(rt::Heap &H, TypeLower &Types, uintptr_t Addr,
                         const Value &V) {
  if (H.gcBarrierActive()) {
    switch (V.Ty->kind()) {
    case minigo::Type::TK_Pointer:
    case minigo::Type::TK_Map:
      H.gcWriteBarrier(Addr, V.A);
      break;
    case minigo::Type::TK_Slice:
      // SliceHeader = {Data, Len, Cap}; Data (offset 0) is the only pointer.
      H.gcWriteBarrier(Addr, V.S.Data);
      break;
    case minigo::Type::TK_Struct:
      if (Addr != V.A)
        H.gcCopyBarrier(Addr, V.A, V.Ty->size(), Types.lower(V.Ty));
      break;
    default:
      break;
    }
  }
  storeValueAt(Addr, V);
}

/// Scratch copy of one map value on its way into or out of a bucket:
/// inline up to 64 bytes, on the C++ heap beyond (a map value may be a
/// struct of any size). Starts zeroed, the value a nil map reads as.
class MapValueBuf {
public:
  explicit MapValueBuf(size_t Bytes) {
    if (Bytes > sizeof(Inline)) {
      Big.reset(new uint64_t[(Bytes + 7) / 8]);
      Ptr = Big.get();
    }
    std::memset(Ptr, 0, Bytes);
  }
  // Ptr may point into this object's own Inline storage.
  MapValueBuf(const MapValueBuf &) = delete;
  MapValueBuf &operator=(const MapValueBuf &) = delete;
  void *data() { return Ptr; }
  uintptr_t addr() const { return reinterpret_cast<uintptr_t>(Ptr); }

private:
  uint64_t Inline[8];
  std::unique_ptr<uint64_t[]> Big;
  uint64_t *Ptr = Inline;
};

/// Marks whatever \p V keeps alive: pointers and maps by address, slices by
/// their backing array, struct references by scanning the pointed-to region
/// with its lowered descriptor. Both engines use this for temporary roots.
void scanValueRoots(rt::Heap &H, TypeLower &Types, const Value &V);

/// One stack-allocated object, for precise root scanning.
struct StackObj {
  uintptr_t Addr;
  const rt::TypeDesc *Desc;
  size_t Bytes;
};

/// A pending deferred call.
struct DeferRecord {
  const minigo::FuncDecl *Fn;
  std::vector<Value> Args;
};

/// An activation record.
struct Frame {
  const minigo::FuncDecl *Fn = nullptr;
  std::vector<char> Slots;
  FrameArena Arena;
  std::vector<StackObj> StackObjs;
  std::vector<DeferRecord> Defers;
  /// Allocation-site id -> fixed stack slot for that site (reused on every
  /// execution, mirroring Go's per-site stack slots). Tree-walker only: the
  /// VM indexes a dense per-chunk site table at the end of Slots instead.
  std::unordered_map<uint32_t, uintptr_t> SiteMem;

  uintptr_t slotAddr(const minigo::VarDecl *V) const {
    return reinterpret_cast<uintptr_t>(Slots.data()) + V->FrameOffset;
  }
};

/// The interpreter. One instance runs one program against one heap.
class Interp : public rt::RootScanner {
public:
  Interp(const minigo::Program &Prog, const escape::ProgramAnalysis &Analysis,
         rt::Heap &Heap, InterpOptions Opts = {});
  ~Interp() override;

  /// Runs \p Entry with integer arguments. The entry function's parameters
  /// must all be int.
  RunResult run(const std::string &Entry,
                const std::vector<int64_t> &Args = {});

  // RootScanner: frames, stack objects, deferred args and temps.
  void scanRoots(rt::Heap &H) override;

private:
  enum class Flow : uint8_t { Normal, Return, Break, Continue, Panic, Fault };

  // Statement execution.
  Flow execBlock(const minigo::BlockStmt *B);
  Flow execStmt(const minigo::Stmt *S);
  Flow execVarDecl(const minigo::VarDeclStmt *DS);
  Flow execAssign(const minigo::AssignStmt *AS);
  Flow execTcfree(const minigo::TcfreeStmt *TS);

  // Expression evaluation. On fault, sets FaultMsg and returns a zero
  // value; callers check via faulted().
  Value evalExpr(const minigo::Expr *E);
  Value evalAppend(const minigo::AppendExpr *AE);
  Value evalMake(const minigo::MakeExpr *ME);
  Value evalComposite(const minigo::CompositeExpr *CE);

  /// Records an escape-analysis stack allocation in the heap's stats and,
  /// when tracing is on, the event stream (table 8's stack column).
  void noteStackAlloc(rt::AllocCat Cat, size_t Bytes);

  /// Resolves an lvalue to the address of its storage. Map element lvalues
  /// are handled separately in execAssign.
  uintptr_t evalLvalueAddr(const minigo::Expr *E, const minigo::Type **TyOut);

  // Calls.
  Flow callFunction(const minigo::FuncDecl *Fn, std::vector<Value> Args,
                    std::vector<Value> *Results);
  void runDefers(Frame &F);

  // Memory access helpers.
  Value loadValue(uintptr_t Addr, const minigo::Type *Ty);
  void storeValue(uintptr_t Addr, const Value &V);
  rt::MapCtx mapCtxFor(const minigo::Type *MapTy);

  // Variable storage: returns the address of the variable's payload,
  // boxing through the heap for moved-to-heap variables.
  uintptr_t varAddr(const minigo::VarDecl *V);
  void initVarSlot(const minigo::VarDecl *V);

  // Fault, panic-unwinding and fuel handling.
  bool faulted() const { return !FaultMsg.empty(); }
  /// True while a fault or a panic raised inside expression evaluation is
  /// unwinding to the nearest statement.
  bool interrupted() const { return PanicUnwinding || !FaultMsg.empty(); }
  /// Converts the pending interruption into a statement-level Flow and
  /// clears the panic-unwinding flag (the panic continues as Flow::Panic).
  Flow unwindStmt();
  Value fault(const std::string &Msg);
  bool burnFuel();

  // Temp rooting around allocation points.
  size_t tempMark() const { return TempRoots.size(); }
  void pushTemp(const Value &V) { TempRoots.push_back(V); }
  void popTemps(size_t Mark) { TempRoots.resize(Mark); }

  const minigo::Program &Prog;
  const escape::ProgramAnalysis &Analysis;
  rt::Heap &Heap;
  InterpOptions Opts;
  TypeLower Types;

  std::vector<std::unique_ptr<Frame>> Frames;
  std::vector<Value> TempRoots;
  RunResult Result;
  std::string FaultMsg;
  std::vector<Value> PendingReturn;
  int64_t PendingPanic = 0;
  bool PanicUnwinding = false;
  uint64_t FuelUsed = 0;
};

} // namespace interp
} // namespace gofree

#endif // GOFREE_INTERP_INTERP_H
