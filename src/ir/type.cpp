#include "ir/type.hpp"

#include <cassert>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace autophase::ir {

namespace {

/// Process-wide interning table. Types are immutable and never freed, so a
/// leaky singleton is the standard, safe choice (avoids destruction-order
/// issues at exit).
struct TypeTable {
  std::mutex mutex;
  std::vector<std::unique_ptr<Type>> storage;
  std::unordered_map<Type*, Type*> pointer_types;  // pointee -> pointer type
};

TypeTable& table() {
  static auto* t = new TypeTable();
  return *t;
}

}  // namespace

std::size_t Type::size_in_bytes() const noexcept {
  switch (kind_) {
    case TypeKind::kVoid: return 0;
    case TypeKind::kInt: return bits_ <= 8 ? 1 : static_cast<std::size_t>(bits_) / 8;
    case TypeKind::kPointer: return 8;
  }
  return 0;
}

std::string Type::to_string() const {
  switch (kind_) {
    case TypeKind::kVoid: return "void";
    case TypeKind::kInt: {
      // Appended, not `"i" + std::to_string(...)`: GCC 12 warns (-Wrestrict)
      // on that form's inlined insert at -O3.
      std::string name = "i";
      name += std::to_string(bits_);
      return name;
    }
    case TypeKind::kPointer: return pointee_->to_string() + "*";
  }
  return "?";
}

// Each scalar singleton is constructed once and registered with the leaky
// table so all Type* stay valid for the process lifetime.
#define AUTOPHASE_DEFINE_SCALAR_TYPE(NAME, KIND, BITS)                        \
  Type* Type::NAME() {                                                       \
    static Type* t = [] {                                                     \
      auto owned = std::unique_ptr<Type>(new Type(KIND, BITS, nullptr));      \
      Type* raw = owned.get();                                                \
      const std::lock_guard<std::mutex> lock(table().mutex);                  \
      table().storage.push_back(std::move(owned));                            \
      return raw;                                                             \
    }();                                                                      \
    return t;                                                                 \
  }

AUTOPHASE_DEFINE_SCALAR_TYPE(void_ty, TypeKind::kVoid, 0)
AUTOPHASE_DEFINE_SCALAR_TYPE(i1, TypeKind::kInt, 1)
AUTOPHASE_DEFINE_SCALAR_TYPE(i8, TypeKind::kInt, 8)
AUTOPHASE_DEFINE_SCALAR_TYPE(i16, TypeKind::kInt, 16)
AUTOPHASE_DEFINE_SCALAR_TYPE(i32, TypeKind::kInt, 32)
AUTOPHASE_DEFINE_SCALAR_TYPE(i64, TypeKind::kInt, 64)

#undef AUTOPHASE_DEFINE_SCALAR_TYPE

Type* Type::int_ty(int bits) {
  assert(bits == 1 || bits == 8 || bits == 16 || bits == 32 || bits == 64);
  switch (bits) {
    case 1: return i1();
    case 8: return i8();
    case 16: return i16();
    case 32: return i32();
    default: return i64();
  }
}

Type* Type::pointer_to(Type* pointee) {
  assert(pointee != nullptr && !pointee->is_void());
  auto& t = table();
  const std::lock_guard<std::mutex> lock(t.mutex);
  const auto it = t.pointer_types.find(pointee);
  if (it != t.pointer_types.end()) return it->second;
  auto owned = std::unique_ptr<Type>(new Type(TypeKind::kPointer, 0, pointee));
  Type* raw = owned.get();
  t.storage.push_back(std::move(owned));
  t.pointer_types.emplace(pointee, raw);
  return raw;
}

}  // namespace autophase::ir
