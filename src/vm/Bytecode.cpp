//===- vm/Bytecode.cpp - Opcode metadata and disassembly ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include <cassert>

using namespace gofree;
using namespace gofree::vm;

const char *gofree::vm::opName(Op O) {
  switch (O) {
  case Op::Const: return "const";
  case Op::Nil: return "nil";
  case Op::LoadVar: return "loadvar";
  case Op::Pop: return "pop";
  case Op::PopN: return "popn";
  case Op::Pick: return "pick";
  case Op::LoadSlotI: return "load.slot.i";
  case Op::LoadSlotA: return "load.slot.a";
  case Op::LoadSlotS: return "load.slot.s";
  case Op::StoreSlotI: return "store.slot.i";
  case Op::StoreSlotA: return "store.slot.a";
  case Op::IncSlotI: return "inc.slot.i";
  case Op::Jump: return "jump";
  case Op::JumpIfFalse: return "jfalse";
  case Op::JumpIfFalsePeek: return "jfalse.peek";
  case Op::JumpIfTruePeek: return "jtrue.peek";
  case Op::JumpIfNotLt: return "jnot.lt";
  case Op::JumpIfNotLe: return "jnot.le";
  case Op::JumpIfNotGt: return "jnot.gt";
  case Op::JumpIfNotGe: return "jnot.ge";
  case Op::JumpIfNotLtLen: return "jnot.lt.len";
  case Op::Neg: return "neg";
  case Op::Not: return "not";
  case Op::Add: return "add";
  case Op::Sub: return "sub";
  case Op::Mul: return "mul";
  case Op::Div: return "div";
  case Op::Mod: return "mod";
  case Op::AddK: return "add.k";
  case Op::MulK: return "mul.k";
  case Op::ModK: return "mod.k";
  case Op::Lt: return "lt";
  case Op::Le: return "le";
  case Op::Gt: return "gt";
  case Op::Ge: return "ge";
  case Op::Eq: return "eq";
  case Op::Ne: return "ne";
  case Op::Deref: return "deref";
  case Op::MkPtr: return "mkptr";
  case Op::FieldPtr: return "field.ptr";
  case Op::FieldVal: return "field.val";
  case Op::IndexSlice: return "index.slice";
  case Op::IndexMap: return "index.map";
  case Op::LvalVar: return "lval.var";
  case Op::LvalDeref: return "lval.deref";
  case Op::LvalFieldPtr: return "lval.field.ptr";
  case Op::LvalField: return "lval.field";
  case Op::LvalIndex: return "lval.index";
  case Op::Store: return "store";
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
  case Op::LenSlice: return "len.slice";
  case Op::LenMap: return "len.map";
  case Op::CapOf: return "cap";
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
    // Annotate the operands that resolve through a pool.
    switch (O) {
    case Op::Const:
    case Op::AddK:
    case Op::MulK:
    case Op::ModK:
      Out += "\t; " + std::to_string(M.Ints[C.Code[I + 2]]);
      break;
    case Op::LoadVar:
    case Op::LvalVar:
    case Op::StoreVarInit:
    case Op::InitVar:
      Out += "\t; " + std::string(M.Vars[C.Code[I + 1]]->Name);
      break;
    case Op::LoadSlotI:
    case Op::LoadSlotA:
    case Op::LoadSlotS:
    case Op::StoreSlotI:
    case Op::StoreSlotA:
      if (const minigo::VarDecl *V = varAtOffset(C.Fn, C.Code[I + 1]))
        Out += "\t; " + std::string(V->Name);
      break;
    case Op::IncSlotI:
      if (const minigo::VarDecl *V = varAtOffset(C.Fn, C.Code[I + 1]))
        Out += "\t; " + std::string(V->Name) + " += " +
               std::to_string(M.Ints[C.Code[I + 2]]);
      break;
    case Op::JumpIfNotLtLen: {
      const minigo::VarDecl *IV = varAtOffset(C.Fn, C.Code[I + 1]);
      const minigo::VarDecl *SV = varAtOffset(C.Fn, C.Code[I + 2]);
      if (IV && SV)
        Out += "\t; " + std::string(IV->Name) + " < len(" +
               std::string(SV->Name) + ")";
      break;
    }
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
