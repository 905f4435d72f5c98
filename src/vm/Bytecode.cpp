//===- vm/Bytecode.cpp - Opcode metadata and disassembly ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "runtime/SliceRt.h"

#include <cstddef>

#include <cassert>

using namespace gofree;
using namespace gofree::vm;

const char *gofree::vm::opName(Op O) {
  switch (O) {
  case Op::Const: return "const";
  case Op::Nil: return "nil";
  case Op::LoadVar: return "loadvar";
  case Op::PopN: return "popn";
  case Op::Pick: return "pick";
  case Op::LoadSlotI: return "load.slot.i";
  case Op::LoadSlotA: return "load.slot.a";
  case Op::LoadSlotS: return "load.slot.s";
  case Op::StoreSlotI: return "store.slot.i";
  case Op::StoreSlotA: return "store.slot.a";
  case Op::StoreSlotS: return "store.slot.s";
  case Op::IncSlotI: return "inc.slot.i";
  case Op::AddToSlot: return "add.to.slot";
  case Op::Jump: return "jump";
  case Op::JumpIfFalse: return "jfalse";
  case Op::JumpIfPeek: return "jpeek";
  case Op::JumpIfLt: return "jlt";
  case Op::JumpIfLe: return "jle";
  case Op::JumpIfGt: return "jgt";
  case Op::JumpIfGe: return "jge";
  case Op::JumpIfEq: return "jeq";
  case Op::JumpIfNe: return "jne";
  case Op::JumpIfNotLtSlot: return "jnot.lt.slot";
  case Op::IncJumpIfLtSlot: return "inc.jlt.slot";
  case Op::Add: return "add";
  case Op::Sub: return "sub";
  case Op::Mul: return "mul";
  case Op::Div: return "div";
  case Op::Mod: return "mod";
  case Op::AddK: return "add.k";
  case Op::MulK: return "mul.k";
  case Op::ModK: return "mod.k";
  case Op::AddSlot: return "add.slot";
  case Op::MulSlotK: return "mul.slot.k";
  case Op::ModSlotK: return "mod.slot.k";
  case Op::MulAddSlot: return "muladd.slot";
  case Op::Cmp: return "cmp";
  case Op::Deref: return "deref";
  case Op::DerefSlot: return "deref.slot";
  case Op::MkPtr: return "mkptr";
  case Op::FieldVal: return "field.val";
  case Op::IndexSlice: return "index.slice";
  case Op::IndexSlot: return "index.slot";
  case Op::IndexMap: return "index.map";
  case Op::LvalVar: return "lval.var";
  case Op::LvalDeref: return "lval.deref";
  case Op::LvalIndex: return "lval.index";
  case Op::Store: return "store";
  case Op::StoreIndexSlot: return "store.index.slot";
  case Op::StoreIndexS: return "store.index.s";
  case Op::StoreVarInit: return "storevar.init";
  case Op::InitVar: return "initvar";
  case Op::MapNilCheck: return "map.nilcheck";
  case Op::StoreMap: return "store.map";
  case Op::Call: return "call";
  case Op::CallMulti: return "call.multi";
  case Op::CallStmt: return "call.stmt";
  case Op::Defer: return "defer";
  case Op::Return: return "return";
  case Op::MissingRet: return "missing.ret";
  case Op::Make: return "make";
  case Op::New: return "new";
  case Op::Composite: return "composite";
  case Op::SetField: return "setfield";
  case Op::LenCap: return "lencap";
  case Op::LenMap: return "len.map";
  case Op::Append: return "append";
  case Op::Slicing: return "slicing";
  case Op::Copy: return "copy";
  case Op::Panic: return "panic";
  case Op::Sink: return "sink";
  case Op::Delete: return "delete";
  case Op::Tcfree: return "tcfree";
  }
  return "???";
}

/// The local whose frame slot sits at \p Off in \p Fn (slot-op listings).
static const minigo::VarDecl *varAtOffset(const minigo::FuncDecl *Fn,
                                          uint32_t Off) {
  for (const minigo::VarDecl *V : Fn->AllVars)
    if (V->FrameOffset == Off && !V->MovedToHeap)
      return V;
  return nullptr;
}

std::string gofree::vm::disassemble(const Module &M, const Chunk &C) {
  std::string Out = std::string(C.Fn->Name) + ":\n";
  for (size_t I = 0; I < C.Code.size();) {
    Op O = (Op)C.Code[I];
    Out += "  " + std::to_string(I) + "\t" + opName(O);
    unsigned N = opOperands(O);
    for (unsigned K = 1; K <= N; ++K)
      Out += " " + std::to_string(C.Code[I + K]);
    // Annotate the operands that resolve through a pool or name a local.
    auto Local = [&](unsigned K) -> std::string {
      const minigo::VarDecl *V = varAtOffset(C.Fn, C.Code[I + K]);
      return V ? std::string(V->Name) : "?";
    };
    auto Int = [&](unsigned K) {
      return std::to_string(M.Ints[C.Code[I + K]]);
    };
    // A bound word: an int local, or the Len word of a slice local.
    auto Bound = [&](unsigned K) -> std::string {
      const uint32_t Off = C.Code[I + K];
      if (varAtOffset(C.Fn, Off))
        return Local(K);
      const uint32_t LenOff = offsetof(rt::SliceHeader, Len);
      const minigo::VarDecl *S =
          Off >= LenOff ? varAtOffset(C.Fn, Off - LenOff) : nullptr;
      return S ? "len(" + std::string(S->Name) + ")" : "?";
    };
    switch (O) {
    case Op::Const:
    case Op::AddK:
    case Op::MulK:
    case Op::ModK:
      Out += "\t; " + Int(2);
      break;
    case Op::LoadVar:
    case Op::LvalVar:
    case Op::StoreVarInit:
    case Op::InitVar:
      Out += "\t; " + std::string(M.Vars[C.Code[I + 1]]->Name);
      break;
    case Op::LoadSlotI:
      Out += "\t; " + Bound(1);
      break;
    case Op::LoadSlotA:
    case Op::LoadSlotS:
    case Op::StoreSlotI:
    case Op::StoreSlotA:
    case Op::StoreSlotS:
    case Op::AddSlot:
    case Op::AddToSlot:
      Out += "\t; " + Local(1);
      break;
    case Op::IncSlotI:
      Out += "\t; " + Local(1) + " += " + Int(2);
      break;
    case Op::MulSlotK:
      Out += "\t; " + Local(1) + " * " + Int(3);
      break;
    case Op::ModSlotK:
      Out += "\t; " + Local(1) + " % " + Int(3);
      break;
    case Op::MulAddSlot:
      Out += "\t; " + Local(1) + " * " + Int(3) + " + " + Local(4);
      break;
    case Op::JumpIfNotLtSlot:
      Out += "\t; " + Local(1) + " < " + Bound(2);
      break;
    case Op::IncJumpIfLtSlot:
      Out += "\t; " + Local(1) + " += " + Int(2) + "; " + Local(1) + " < " +
             Bound(3);
      break;
    case Op::DerefSlot:
      Out += "\t; " + Local(1);
      break;
    case Op::StoreIndexS:
      Out += "\t; " + Local(1) + "[]";
      break;
    case Op::IndexSlot:
    case Op::StoreIndexSlot:
      Out += "\t; " + Local(1) + "[" + Local(2) + "]";
      break;
    case Op::Call:
    case Op::CallMulti:
    case Op::CallStmt:
    case Op::Defer: {
      const minigo::FuncDecl *F = M.Funcs[C.Code[I + 1]];
      Out += "\t; " + std::string(F ? F->Name : "<unresolved>");
      break;
    }
    default:
      break;
    }
    Out += "\n";
    I += 1 + N;
  }
  return Out;
}
std::string gofree::vm::disassemble(const Module &M) {
  std::string Out;
  for (const Chunk &C : M.Chunks)
    Out += disassemble(M, C);
  return Out;
}
