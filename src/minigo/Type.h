//===- minigo/Type.h - MiniGo type system ----------------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniGo types and the interning TypeTable. Types are canonical: two
/// structurally identical types are the same pointer, so type equality is
/// pointer equality. Layout (size/alignment/field offsets) follows a
/// simplified 64-bit Go ABI: int and bool occupy 8 bytes, pointers and maps
/// 8 bytes, slices 24 bytes (data, len, cap).
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_MINIGO_TYPE_H
#define GOFREE_MINIGO_TYPE_H

#include <cassert>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gofree {
namespace minigo {

class Type;

/// A named struct field with its layout offset.
struct Field {
  std::string Name;
  const Type *Ty = nullptr;
  size_t Offset = 0;
};

/// A MiniGo type. Construct only through TypeTable.
class Type {
public:
  enum Kind {
    TK_Int,
    TK_Bool,
    TK_Void,    ///< Result of value-less builtins; no storage.
    TK_Pointer, ///< *Elem
    TK_Slice,   ///< []Elem: {data *Elem, len int, cap int}
    TK_Map,     ///< map[Key]Elem, represented as a pointer to an hmap
    TK_Struct,  ///< Named struct with fields
    TK_Tuple,   ///< Multi-value function result; not a storable value
    TK_Nil,     ///< The untyped nil literal before Sema resolves it
  };

  Kind kind() const { return K; }
  bool isInt() const { return K == TK_Int; }
  bool isBool() const { return K == TK_Bool; }
  bool isVoid() const { return K == TK_Void; }
  bool isPointer() const { return K == TK_Pointer; }
  bool isSlice() const { return K == TK_Slice; }
  bool isMap() const { return K == TK_Map; }
  bool isStruct() const { return K == TK_Struct; }
  bool isTuple() const { return K == TK_Tuple; }
  bool isNil() const { return K == TK_Nil; }
  /// Types whose zero value is nil and which compare against nil.
  bool isNilable() const { return isPointer() || isSlice() || isMap(); }
  bool isScalar() const { return K == TK_Int || K == TK_Bool; }

  /// Pointee for pointers, element for slices, value type for maps.
  const Type *elem() const {
    assert((isPointer() || isSlice() || isMap()) && "type has no element");
    return Elem;
  }
  /// Key type for maps.
  const Type *key() const {
    assert(isMap() && "only maps have keys");
    return Key;
  }

  const std::string &structName() const {
    assert(isStruct() && "not a struct");
    return Name;
  }
  const std::vector<Field> &fields() const {
    assert(isStruct() && "not a struct");
    return Fields;
  }
  /// Looks up a field by name; returns nullptr if absent.
  const Field *findField(std::string_view FieldName) const;

  const std::vector<const Type *> &tupleElems() const {
    assert(isTuple() && "not a tuple");
    return Members;
  }

  /// Storage size in bytes. Tuples and void have no storage.
  size_t size() const { return Size; }

  /// True if values of this type may contain heap references (pointers,
  /// slices, maps, or structs containing them). Scalar-only data never needs
  /// Exposes/Incomplete tracking (section 4.2 of the paper).
  bool hasPointers() const { return HasPointers; }

  /// Human-readable spelling, e.g. "*[]int" or "map[int]Node".
  std::string str() const;

private:
  friend class TypeTable;
  Type() = default;

  Kind K = TK_Int;
  const Type *Elem = nullptr;
  const Type *Key = nullptr;
  std::string Name;
  std::vector<Field> Fields;
  std::vector<const Type *> Members;
  size_t Size = 0;
  bool HasPointers = false;
};

/// Owns and interns all types of one program.
class TypeTable {
public:
  TypeTable();
  TypeTable(const TypeTable &) = delete;
  TypeTable &operator=(const TypeTable &) = delete;

  const Type *getInt() const { return IntTy; }
  const Type *getBool() const { return BoolTy; }
  const Type *getVoid() const { return VoidTy; }
  const Type *getNil() const { return NilTy; }
  const Type *getPointer(const Type *Pointee);
  const Type *getSlice(const Type *Elem);
  const Type *getMap(const Type *Key, const Type *Value);
  const Type *getTuple(std::span<const Type *const> Elems);

  /// Declares a struct by name; fields are attached later with
  /// finalizeStruct. Returns the (possibly pre-existing) struct type.
  Type *declareStruct(std::string_view Name);
  /// Looks up a previously declared struct; nullptr if unknown.
  Type *findStruct(std::string_view Name) const;
  /// Assigns fields and computes layout. Must be called exactly once.
  void finalizeStruct(Type *StructTy, std::vector<Field> Fields);

private:
  Type *make();

  std::vector<std::unique_ptr<Type>> Pool;
  const Type *IntTy;
  const Type *BoolTy;
  const Type *VoidTy;
  const Type *NilTy;
  std::unordered_map<const Type *, const Type *> PointerCache;
  std::unordered_map<const Type *, const Type *> SliceCache;
  std::map<std::pair<const Type *, const Type *>, const Type *> MapCache;
  /// Keys view the struct types' own names.
  std::unordered_map<std::string_view, Type *> Structs;
  std::vector<const Type *> Tuples;
};

} // namespace minigo
} // namespace gofree

#endif // GOFREE_MINIGO_TYPE_H
