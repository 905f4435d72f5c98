//===- vm/Vm.h - MiniGo bytecode virtual machine ---------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled MiniGo (vm::Module) against the GoFree runtime. The VM
/// reuses the tree-walking interpreter's value model, frame layout and
/// memory helpers (interp::Value, loadValueAt/storeValueAt), so the two
/// engines produce bit-identical heaps and checksums; only dispatch and the
/// call machinery change. Like interp::Interp, a Vm is a precise GC root
/// scanner: frame slots via pointer maps, stack-allocated objects, deferred
/// arguments, and -- replacing the interpreter's explicit temp roots --
/// every value on the operand stack, pending return values included.
///
/// Calls allocate nothing on the C++ heap once the VM's buffers have grown
/// to the program's deepest call chain. Each call bumps one region of a
/// SlotStack: the callee's variable slots, then one word per allocation
/// site of its chunk (Chunk::NumSites) -- the address of that site's fixed
/// stack storage once the site has run, zero before. The executing frame is
/// always the topmost region, so stack-placed objects, struct values read
/// from maps and struct-return copies simply extend it; the return pops the
/// whole region. The site table is never scanned; each object's storage is
/// registered in the VM-wide StackObjs list, truncated on return.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_VM_VM_H
#define GOFREE_VM_VM_H

#include "interp/Interp.h"
#include "vm/Bytecode.h"

namespace gofree {
namespace vm {

/// The memory behind VM frames: a bump stack of 8-byte-aligned regions in
/// segments that never move, so every address it hands out stays valid
/// until the region is popped. Popped segments are kept for the next push,
/// so a program whose call depth has peaked allocates nothing here.
class SlotStack {
public:
  /// A position to pop back to.
  struct Mark {
    size_t Seg = 0;
    size_t Used = 0;
  };
  /// Bytes per segment; a larger request gets a segment of its own size.
  static constexpr size_t SegmentBytes = 64 * 1024;

  /// \p Bytes (rounded up to 8) of uninitialized storage on top.
  uintptr_t push(size_t Bytes) {
    Bytes = (Bytes + 7) & ~(size_t)7;
    if (Seg < Segs.size() && Used + Bytes <= Segs[Seg].Size) {
      uintptr_t At = reinterpret_cast<uintptr_t>(Segs[Seg].Mem.get()) + Used;
      Used += Bytes;
      return At;
    }
    return pushSlow(Bytes);
  }
  Mark mark() const { return {Seg, Used}; }
  void popTo(Mark M) {
    Seg = M.Seg;
    Used = M.Used;
  }

private:
  struct Segment {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };
  uintptr_t pushSlow(size_t Bytes);

  std::vector<Segment> Segs;
  size_t Seg = 0;  ///< The segment being bumped.
  size_t Used = 0; ///< Bytes of it in use.
};

/// Dispatch counts by op and by op pair: Pairs[a][b] counts dispatches of
/// b right after a on the same VM (across calls and returns too). Only a
/// -DGOFREE_VM_PROFILE=ON build collects them: there every dispatch counts
/// once, so total() equals the run's steps, and each Vm adds its counts to
/// one process-wide profile when its run ends.
struct OpProfile {
  uint64_t Ops[NumOps] = {};
  uint64_t Pairs[NumOps][NumOps] = {};

  uint64_t total() const;
  void add(const OpProfile &O);
};

#ifdef GOFREE_VM_PROFILE
inline constexpr bool OpProfileEnabled = true;
#else
inline constexpr bool OpProfileEnabled = false;
#endif

/// The process-wide profile of every Vm run that has ended (all zero
/// unless OpProfileEnabled).
OpProfile opProfile();
/// The `vm.ops` table: every op with its count and share, most frequent
/// first (ops that never ran included), then the \p TopPairs most frequent
/// op pairs.
std::string formatOpProfile(const OpProfile &P, size_t TopPairs = 20);

/// The bytecode engine. One instance runs one program against one heap.
/// Observable behavior (checksum, sink count, panic, faults) matches
/// interp::Interp exactly; the fuzz differ enforces this law.
class Vm : public rt::RootScanner {
public:
  /// Runs \p Mod, the vm::compileProgram of \p Prog. The module is
  /// immutable during execution, so every worker of a run shares one.
  Vm(const minigo::Program &Prog, rt::Heap &Heap, interp::InterpOptions Opts,
     const Module &Mod);
  ~Vm() override;

  /// Runs \p Entry with integer arguments (same contract as Interp::run).
  interp::RunResult run(const std::string &Entry,
                        const std::vector<int64_t> &Args = {});

  // RootScanner: frames, stack objects, deferred args and the operand
  // stack (pending returns included).
  void scanRoots(rt::Heap &H) override;

private:
  enum class Flow : uint8_t { Normal, Return, Panic, Fault };

  /// One activation record.
  struct FrameRec {
    const minigo::FuncDecl *Fn;
    uintptr_t Slots; ///< Base of the frame's SlotStack region.
    /// The frame's own operand-stack entries start here (its arguments
    /// lie below).
    size_t TransientBase;
    /// The frame's region above this mark holds only struct temporaries
    /// (struct results and map reads) that nothing but the frame's own
    /// operand-stack entries can refer to.
    SlotStack::Mark TempFloor;
  };

  /// A pending deferred call; its arguments are DeferArgs[ArgBegin, +Argc).
  struct Deferred {
    const Chunk *Callee;
    uint32_t ArgBegin;
    uint32_t Argc;
  };

  /// Calls \p C (null: an unresolved function) whose \p Argc arguments
  /// sit at [ArgBase, ArgBase+Argc) on the operand stack; they stay there,
  /// rooted, for the whole call. On Normal the results replace them:
  /// depth() is ArgBase plus the number of values the callee returned. On
  /// Panic or Fault the caller drops the stack itself.
  Flow runFunction(const Chunk *C, size_t ArgBase, size_t Argc);
  Flow execChunk(const Chunk &C, uintptr_t SlotBase);
  /// Runs the executing frame's defers, those at and above \p DeferBase.
  void runDefers(size_t DeferBase);

  // Allocation-site execution, mirroring the interpreter's eval* helpers.
  Flow doMake(const MakeSite &S);
  Flow doComposite(const ObjSite<minigo::CompositeExpr> &S);
  Flow doNew(const ObjSite<minigo::NewExpr> &S);
  void doTcfree(const minigo::TcfreeStmt *TS);
  /// Fixed storage of stack-placed site \p Site in the executing frame:
  /// carved from the top of the slot stack (and registered for scanning via
  /// \p Register) the first time, zeroed on every later execution.
  template <typename RegisterFn>
  uintptr_t siteStorage(uint32_t Site, size_t Bytes, RegisterFn Register);
  /// Storage for a struct temporary of the executing frame, extending its
  /// region. The frame's earlier temporaries are dropped first when no
  /// struct value on its part of the operand stack can still refer to one,
  /// so a loop that reads struct results or map values does not grow the
  /// frame. (Before the first frame is pushed, it simply bumps.)
  uintptr_t frameTemp(size_t Bytes);

  // Shared-with-interp bookkeeping (same semantics; see Interp.cpp), on the
  // frame whose slots start at SlotBase.
  uintptr_t varAddr(uintptr_t SlotBase, const minigo::VarDecl *V);
  void initVarSlot(uintptr_t SlotBase, const minigo::VarDecl *V);
  /// The map context of M->MapTypes[Idx] (built with this engine's cache
  /// id, which is fixed for the engine's lifetime).
  const rt::MapCtx &mapCtx(uint32_t Idx) const { return MapCtxs[Idx]; }
  bool faulted() const { return !FaultMsg.empty(); }
  void fault(const std::string &Msg);

  /// Fuel slow paths of the dispatch loop (which keeps the counter in a
  /// register): the GC-torture hook, and fuel exhaustion.
  bool burnFuelHooks();
  bool outOfFuel();

  // Operand stack: a buffer and one top pointer, so push and pop do no
  // capacity check. runFunction reserves each chunk's MaxDepth on entry
  // (and runDefers/run reserve the arguments they push), so every push
  // inside a chunk has room. Reserving may move the buffer; that is safe
  // because no handler holds a Value& or Value* into the stack across a
  // call -- call handlers keep stack positions as indices.
  //
  // execChunk keeps the top in a register and writes it back only around
  // out-of-line calls and on return. The invariant: Vm::Sp is exact
  // whenever this thread can park at a safepoint or scanRoots can run --
  // inside every allocation, tcfree, callee and fuel hook -- and whenever
  // these helpers run.
  void push(const interp::Value &V) { *Sp++ = V; }
  interp::Value pop() { return *--Sp; }
  size_t depth() const { return (size_t)(Sp - StackBuf.data()); }
  void setDepth(size_t D) { Sp = StackBuf.data() + D; }
  /// Makes room for \p N more entries above the top.
  void reserveStack(size_t N) {
    if (StackBuf.size() - depth() < N)
      growStack(N);
  }
  void growStack(size_t N);

  const minigo::Program &Prog;
  rt::Heap &Heap;
  const interp::InterpOptions Opts;
  interp::TypeLower Types;

  const Module *M;

  /// The live activations, innermost last, and the memory behind them.
  std::vector<FrameRec> Frames;
  SlotStack Slots;
  /// Stack-placed objects and pending defers of every live frame, each
  /// frame's above the ones of its callers; a return truncates both.
  std::vector<interp::StackObj> StackObjs;
  std::vector<Deferred> Defers;
  std::vector<interp::Value> DeferArgs;
  /// Operand stack storage; every entry below Sp is a root.
  std::vector<interp::Value> StackBuf;
  interp::Value *Sp = nullptr;
  /// M->Funcs, M->Descs and M->MapTypes resolved once per VM (callee
  /// chunks; descriptors and map contexts through Types).
  std::vector<const Chunk *> Callees;
  std::vector<const rt::TypeDesc *> Descs;
  std::vector<rt::MapCtx> MapCtxs;
  interp::RunResult Result;
  std::string FaultMsg;
  uint64_t FuelUsed = 0;
  /// True when GcEveryNSteps is set (it needs a per-step modulo check);
  /// false keeps the dispatch loop's fuel check branchless of it.
  bool FuelHooks = false;
#ifdef GOFREE_VM_PROFILE
  void countOp(uint32_t O) {
    ++Prof->Ops[O];
    if (ProfPrev < NumOps)
      ++Prof->Pairs[ProfPrev][O];
    ProfPrev = O;
  }
  std::unique_ptr<OpProfile> Prof = std::make_unique<OpProfile>();
  uint32_t ProfPrev = NumOps; ///< The op dispatched last; NumOps: none yet.
#endif
};

} // namespace vm
} // namespace gofree

#endif // GOFREE_VM_VM_H
