// Value hierarchy for the AutoPhase IR: constants, undef, function
// arguments, global variables, and instructions (declared in
// instruction.hpp). Non-constant values keep a use list (the instructions
// referencing them, with multiplicity) so passes can run
// replace_all_uses_with / dead-value queries efficiently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.hpp"
#include "support/arena.hpp"

namespace autophase::ir {

class Instruction;
class Function;

enum class ValueKind {
  kConstantInt,
  kUndef,
  kArgument,
  kGlobalVariable,
  kInstruction,
};

class Value {
 public:
  virtual ~Value() = default;

  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  /// IR nodes allocate from the ambient support::Arena when a rollout
  /// clone's ArenaScope is active; a per-allocation tag makes delete a no-op
  /// for arena-backed nodes, so unique_ptr ownership works unchanged for
  /// heap- and arena-backed values alike (including all subclasses).
  static void* operator new(std::size_t size) { return support::arena_aware_allocate(size); }
  static void operator delete(void* ptr) noexcept { support::arena_aware_deallocate(ptr); }

  [[nodiscard]] ValueKind value_kind() const noexcept { return value_kind_; }
  [[nodiscard]] Type* type() const noexcept { return type_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] bool is_constant() const noexcept {
    return value_kind_ == ValueKind::kConstantInt || value_kind_ == ValueKind::kUndef;
  }

  /// Instructions currently using this value, one entry per operand slot
  /// (so a value used twice by one instruction appears twice). Constants do
  /// not track users (they are interned and shared).
  [[nodiscard]] const std::vector<Instruction*>& users() const noexcept { return users_; }

  [[nodiscard]] bool has_users() const noexcept { return !users_.empty(); }

  /// Rewrites every operand slot referencing this value to reference
  /// `replacement` instead. Not valid on constants.
  void replace_all_uses_with(Value* replacement);

 protected:
  Value(ValueKind kind, Type* type, std::string name)
      : value_kind_(kind), type_(type), name_(std::move(name)) {}

 private:
  friend class Instruction;

  [[nodiscard]] bool tracks_users() const noexcept { return !is_constant(); }

  void add_user(Instruction* user) {
    if (tracks_users()) users_.push_back(user);
  }
  void remove_user(Instruction* user);

  ValueKind value_kind_;
  Type* type_;
  std::string name_;
  std::vector<Instruction*> users_;
};

/// Integer constant. Interned per Module (see Module::get_int); always
/// compared by pointer within one module.
class ConstantInt final : public Value {
 public:
  ConstantInt(Type* type, std::int64_t value)
      : Value(ValueKind::kConstantInt, type, ""), value_(value) {}

  /// Sign-extended 64-bit view of the constant.
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

  [[nodiscard]] bool is_zero() const noexcept { return value_ == 0; }
  [[nodiscard]] bool is_one() const noexcept { return value_ == 1; }

  /// True if the (unsigned) value is a power of two.
  [[nodiscard]] bool is_power_of_two() const noexcept {
    const auto u = static_cast<std::uint64_t>(value_);
    return u != 0 && (u & (u - 1)) == 0;
  }

 private:
  std::int64_t value_;
};

/// Undefined value of a given type (result of reading uninitialised state).
class Undef final : public Value {
 public:
  explicit Undef(Type* type) : Value(ValueKind::kUndef, type, "") {}
};

/// Formal parameter of a function.
class Argument final : public Value {
 public:
  Argument(Type* type, std::string name, Function* parent, unsigned index)
      : Value(ValueKind::kArgument, type, std::move(name)), parent_(parent), index_(index) {}

  [[nodiscard]] Function* parent() const noexcept { return parent_; }
  [[nodiscard]] unsigned index() const noexcept { return index_; }
  void set_index(unsigned index) noexcept { index_ = index; }

 private:
  Function* parent_;
  unsigned index_;
};

/// Module-level array of integers (lookup tables, buffers). The value itself
/// has pointer type (it denotes the address), like LLVM globals.
class GlobalVariable final : public Value {
 public:
  GlobalVariable(Type* element_type, std::size_t element_count, std::string name,
                 std::vector<std::int64_t> init, bool is_constant_data)
      : Value(ValueKind::kGlobalVariable, Type::pointer_to(element_type), std::move(name)),
        element_type_(element_type),
        element_count_(element_count),
        init_(std::move(init)),
        is_constant_data_(is_constant_data) {}

  [[nodiscard]] Type* element_type() const noexcept { return element_type_; }
  [[nodiscard]] std::size_t element_count() const noexcept { return element_count_; }

  /// Initial element values; empty means zero-initialised.
  [[nodiscard]] const std::vector<std::int64_t>& init() const noexcept { return init_; }

  /// True if no store may target this global (a ROM / lookup table).
  [[nodiscard]] bool is_constant_data() const noexcept { return is_constant_data_; }
  void set_constant_data(bool value) noexcept { is_constant_data_ = value; }

  [[nodiscard]] std::size_t size_in_bytes() const noexcept {
    return element_count_ * element_type_->size_in_bytes();
  }

 private:
  Type* element_type_;
  std::size_t element_count_;
  std::vector<std::int64_t> init_;
  bool is_constant_data_;
};

/// Downcast helpers (LLVM-style dyn_cast, without RTTI).
inline ConstantInt* as_constant_int(Value* v) noexcept {
  return v != nullptr && v->value_kind() == ValueKind::kConstantInt ? static_cast<ConstantInt*>(v)
                                                                    : nullptr;
}
inline const ConstantInt* as_constant_int(const Value* v) noexcept {
  return v != nullptr && v->value_kind() == ValueKind::kConstantInt
             ? static_cast<const ConstantInt*>(v)
             : nullptr;
}
inline GlobalVariable* as_global(Value* v) noexcept {
  return v != nullptr && v->value_kind() == ValueKind::kGlobalVariable
             ? static_cast<GlobalVariable*>(v)
             : nullptr;
}

}  // namespace autophase::ir
