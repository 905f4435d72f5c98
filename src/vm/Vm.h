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
/// memory helpers (interp::Frame, loadValueAt/storeValueAt), so the two
/// engines produce bit-identical heaps and checksums; only dispatch
/// changes. Like interp::Interp, a Vm is a precise GC root scanner: frame
/// slots via pointer maps, stack-allocated objects, deferred arguments, and
/// -- replacing the interpreter's explicit temp roots -- every value on the
/// operand stack and in the pending-return slots.
///
/// A VM frame's Slots buffer holds the function's variable slots followed
/// by one word per allocation site of its chunk (Chunk::NumSites): the
/// address of that site's fixed stack storage once the site has run, zero
/// before. The tail is never scanned; the storage itself is registered in
/// Frame::StackObjs.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_VM_VM_H
#define GOFREE_VM_VM_H

#include "interp/Interp.h"
#include "vm/Bytecode.h"

namespace gofree {
namespace vm {

/// The bytecode engine. One instance runs one program against one heap.
/// Observable behavior (checksum, sink count, panic, faults) matches
/// interp::Interp exactly; the fuzz differ enforces this law.
class Vm : public rt::RootScanner {
public:
  /// Runs \p Mod, the vm::compileProgram of \p Prog. The module is
  /// immutable during execution, so every worker of a run shares one.
  Vm(const minigo::Program &Prog, const escape::ProgramAnalysis &Analysis,
     rt::Heap &Heap, interp::InterpOptions Opts, const Module &Mod);
  ~Vm() override;

  /// Runs \p Entry with integer arguments (same contract as Interp::run).
  interp::RunResult run(const std::string &Entry,
                        const std::vector<int64_t> &Args = {});

  // RootScanner: frames, stack objects, deferred args, operand stack and
  // pending returns.
  void scanRoots(rt::Heap &H) override;

private:
  enum class Flow : uint8_t { Normal, Return, Panic, Fault };

  /// Calls \p Fn whose \p Argc arguments sit at [ArgBase, ArgBase+Argc) on
  /// the operand stack (they stay there, rooted, for the whole call and are
  /// still present on return -- the caller drops them). Results are moved
  /// into \p Results. Returns Normal, Panic or Fault.
  Flow runFunction(const minigo::FuncDecl *Fn, size_t ArgBase, size_t Argc,
                   std::vector<interp::Value> &Results);
  Flow execChunk(const Chunk &C);
  void runDefers(interp::Frame &F);

  // Allocation-site execution, mirroring the interpreter's eval* helpers.
  Flow doMake(const MakeSite &S);
  Flow doComposite(const ObjSite<minigo::CompositeExpr> &S);
  Flow doNew(const ObjSite<minigo::NewExpr> &S);
  void doTcfree(const minigo::TcfreeStmt *TS);
  /// Fixed storage of stack-placed site \p Site in \p F: carved from the
  /// frame arena (and registered for scanning via \p Register) the first
  /// time, zeroed on every later execution.
  template <typename RegisterFn>
  uintptr_t siteStorage(interp::Frame &F, uint32_t Site, size_t Bytes,
                        RegisterFn Register);

  // Shared-with-interp bookkeeping (same semantics; see Interp.cpp).
  // Take the frame explicitly: the dispatch loop hoists *Frames.back()
  // once per chunk instead of reloading it per variable access.
  uintptr_t varAddr(interp::Frame &F, const minigo::VarDecl *V);
  void initVarSlot(interp::Frame &F, const minigo::VarDecl *V);
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
  void push(const interp::Value &V) { *Sp++ = V; }
  interp::Value pop() { return *--Sp; }
  interp::Value &top() { return Sp[-1]; }
  size_t depth() const { return (size_t)(Sp - StackBuf.data()); }
  void setDepth(size_t D) { Sp = StackBuf.data() + D; }
  /// Makes room for \p N more entries above the top.
  void reserveStack(size_t N) {
    if (StackBuf.size() - depth() < N)
      growStack(N);
  }
  void growStack(size_t N);

  const minigo::Program &Prog;
  const escape::ProgramAnalysis &Analysis;
  rt::Heap &Heap;
  const interp::InterpOptions Opts;
  interp::TypeLower Types;

  const Module *M;

  std::vector<std::unique_ptr<interp::Frame>> Frames;
  /// Parallel to Frames: each frame's captured return values (alive and
  /// scanned while that frame's defers run).
  std::vector<std::vector<interp::Value>> ReturnedStack;
  /// Operand stack storage; every entry below Sp is a root.
  std::vector<interp::Value> StackBuf;
  interp::Value *Sp = nullptr;
  /// M->Descs and M->MapTypes resolved through Types, once per VM.
  std::vector<const rt::TypeDesc *> Descs;
  std::vector<rt::MapCtx> MapCtxs;
  interp::RunResult Result;
  std::string FaultMsg;
  uint64_t FuelUsed = 0;
  /// True when GcEveryNSteps is set (it needs a per-step modulo check);
  /// false keeps the dispatch loop's fuel check branchless of it.
  bool FuelHooks = false;
};

} // namespace vm
} // namespace gofree

#endif // GOFREE_VM_VM_H
