//===- minigo/Type.cpp - MiniGo type system -------------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Type.h"

#include <algorithm>

using namespace gofree;
using namespace gofree::minigo;

const Field *Type::findField(std::string_view FieldName) const {
  for (const Field &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

std::string Type::str() const {
  switch (K) {
  case TK_Int:
    return "int";
  case TK_Bool:
    return "bool";
  case TK_Void:
    return "void";
  case TK_Pointer:
    return "*" + Elem->str();
  case TK_Slice:
    return "[]" + Elem->str();
  case TK_Map:
    return "map[" + Key->str() + "]" + Elem->str();
  case TK_Struct:
    return Name;
  case TK_Nil:
    return "nil";
  case TK_Tuple: {
    std::string Out = "(";
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Members[I]->str();
    }
    return Out + ")";
  }
  }
  return "<bad type>";
}

TypeTable::TypeTable() {
  Type *I = make();
  I->K = Type::TK_Int;
  I->Size = 8;
  IntTy = I;

  Type *B = make();
  B->K = Type::TK_Bool;
  B->Size = 8;
  BoolTy = B;

  Type *V = make();
  V->K = Type::TK_Void;
  V->Size = 0;
  VoidTy = V;

  Type *N = make();
  N->K = Type::TK_Nil;
  N->Size = 8;
  NilTy = N;
}

Type *TypeTable::make() {
  Pool.push_back(std::unique_ptr<Type>(new Type()));
  return Pool.back().get();
}

const Type *TypeTable::getPointer(const Type *Pointee) {
  auto It = PointerCache.find(Pointee);
  if (It != PointerCache.end())
    return It->second;
  Type *T = make();
  T->K = Type::TK_Pointer;
  T->Elem = Pointee;
  T->Size = 8;
  T->HasPointers = true;
  PointerCache[Pointee] = T;
  return T;
}

const Type *TypeTable::getSlice(const Type *Elem) {
  auto It = SliceCache.find(Elem);
  if (It != SliceCache.end())
    return It->second;
  Type *T = make();
  T->K = Type::TK_Slice;
  T->Elem = Elem;
  T->Size = 24;
  T->HasPointers = true;
  SliceCache[Elem] = T;
  return T;
}

const Type *TypeTable::getMap(const Type *Key, const Type *Value) {
  auto It = MapCache.find({Key, Value});
  if (It != MapCache.end())
    return It->second;
  Type *T = make();
  T->K = Type::TK_Map;
  T->Key = Key;
  T->Elem = Value;
  T->Size = 8;
  T->HasPointers = true;
  MapCache[{Key, Value}] = T;
  return T;
}

const Type *TypeTable::getTuple(std::span<const Type *const> Elems) {
  for (const Type *T : Tuples) {
    const std::vector<const Type *> &Members = T->tupleElems();
    if (std::equal(Members.begin(), Members.end(), Elems.begin(), Elems.end()))
      return T;
  }
  Type *T = make();
  T->K = Type::TK_Tuple;
  T->Members.assign(Elems.begin(), Elems.end());
  T->Size = 0;
  Tuples.push_back(T);
  return T;
}

Type *TypeTable::declareStruct(std::string_view Name) {
  auto It = Structs.find(Name);
  if (It != Structs.end())
    return It->second;
  Type *T = make();
  T->K = Type::TK_Struct;
  T->Name = Name;
  Structs[T->Name] = T;
  return T;
}

Type *TypeTable::findStruct(std::string_view Name) const {
  auto It = Structs.find(Name);
  return It == Structs.end() ? nullptr : It->second;
}

void TypeTable::finalizeStruct(Type *StructTy, std::vector<Field> Fields) {
  assert(StructTy->isStruct() && "finalizeStruct on non-struct");
  assert(StructTy->Fields.empty() && StructTy->Size == 0 &&
         "struct finalized twice");
  size_t Offset = 0;
  bool HasPtr = false;
  for (Field &F : Fields) {
    // All MiniGo types are 8-byte aligned.
    F.Offset = Offset;
    Offset += F.Ty->size();
    HasPtr |= F.Ty->hasPointers();
  }
  StructTy->Fields = std::move(Fields);
  StructTy->Size = Offset;
  StructTy->HasPointers = HasPtr;
}
