// Instruction: a single-class, tagged representation of every IR operation
// (LLVM-style, without the subclass zoo). Instructions are Values; operand
// edges maintain use lists automatically, and terminator/successor edges
// maintain basic-block predecessor lists automatically once the instruction
// is linked into a block.
//
// Semantics notes (documented deviations from LLVM, chosen because HLS
// hardware does not trap):
//   * sdiv/udiv/srem/urem by zero produce 0,
//   * signed overflow wraps (two's complement),
// so every non-memory, non-call instruction is safe to speculate.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.hpp"

namespace autophase::ir {

class BasicBlock;
class Function;

enum class Opcode {
  // Binary arithmetic / bitwise (operands and result share an int type).
  kAdd,
  kSub,
  kMul,
  kSDiv,
  kUDiv,
  kSRem,
  kURem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  // Comparison (int operands, i1 result).
  kICmp,
  // Casts.
  kZExt,
  kSExt,
  kTrunc,
  kBitCast,
  // Misc value ops.
  kSelect,
  kPhi,
  // Memory.
  kAlloca,
  kLoad,
  kStore,
  kGep,
  kMemSet,
  kMemCpy,
  // Calls.
  kCall,
  // Terminators.
  kBr,
  kCondBr,
  kSwitch,
  kRet,
  kUnreachable,
};

enum class ICmpPred { kEq, kNe, kSlt, kSle, kSgt, kSge, kUlt, kUle, kUgt, kUge };

[[nodiscard]] const char* opcode_name(Opcode op) noexcept;
[[nodiscard]] const char* icmp_pred_name(ICmpPred pred) noexcept;
[[nodiscard]] bool opcode_is_binary(Opcode op) noexcept;
[[nodiscard]] bool opcode_is_cast(Opcode op) noexcept;
[[nodiscard]] bool opcode_is_terminator(Opcode op) noexcept;
[[nodiscard]] bool opcode_is_commutative(Opcode op) noexcept;
/// Swapped-operand predicate helper for icmp simplification.
[[nodiscard]] ICmpPred icmp_swapped(ICmpPred pred) noexcept;

class Instruction final : public Value {
 public:
  ~Instruction() override;

  // ---- Factories (unlinked; insert via BasicBlock / IRBuilder) ----
  static std::unique_ptr<Instruction> binary(Opcode op, Value* lhs, Value* rhs,
                                             std::string name = "");
  static std::unique_ptr<Instruction> icmp(ICmpPred pred, Value* lhs, Value* rhs,
                                           std::string name = "");
  static std::unique_ptr<Instruction> cast(Opcode op, Value* value, Type* to,
                                           std::string name = "");
  static std::unique_ptr<Instruction> select(Value* cond, Value* if_true, Value* if_false,
                                             std::string name = "");
  static std::unique_ptr<Instruction> phi(Type* type, std::string name = "");
  static std::unique_ptr<Instruction> alloca_inst(Type* element_type, std::size_t count,
                                                  std::string name = "");
  static std::unique_ptr<Instruction> load(Value* pointer, std::string name = "");
  static std::unique_ptr<Instruction> store(Value* value, Value* pointer);
  static std::unique_ptr<Instruction> gep(Value* pointer, Value* index, std::string name = "");
  static std::unique_ptr<Instruction> mem_set(Value* dst, Value* value, Value* count);
  static std::unique_ptr<Instruction> mem_cpy(Value* dst, Value* src, Value* count);
  static std::unique_ptr<Instruction> call(Function* callee, std::vector<Value*> args,
                                           std::string name = "");
  static std::unique_ptr<Instruction> br(BasicBlock* target);
  static std::unique_ptr<Instruction> cond_br(Value* cond, BasicBlock* if_true,
                                              BasicBlock* if_false);
  static std::unique_ptr<Instruction> switch_inst(Value* value, BasicBlock* default_dest);
  static std::unique_ptr<Instruction> ret(Value* value /* nullptr for void */);
  static std::unique_ptr<Instruction> unreachable();

  /// Unlinked deep copy referencing the *same* operands / successors /
  /// incoming blocks; callers remap afterwards (see ir/clone.hpp). The copy
  /// registers itself in its operands' user lists, so it must only be used
  /// when the source values are private to the calling thread.
  [[nodiscard]] std::unique_ptr<Instruction> clone() const;

  /// Like clone(), but does NOT touch the operands' user lists — the source
  /// module stays bit-untouched, which is what makes concurrent clones of
  /// one shared program safe. Every operand must be rebound through
  /// bind_operand() (clone_blocks does this) before the copy is usable.
  [[nodiscard]] std::unique_ptr<Instruction> clone_unbound() const;

  /// Replaces operand `i` and registers this instruction as a user of the
  /// new value without unregistering from the old one (which an unbound
  /// clone never registered with). Only meaningful after clone_unbound().
  void bind_operand(std::size_t i, Value* value);

  // ---- Classification ----
  [[nodiscard]] Opcode opcode() const noexcept { return opcode_; }
  [[nodiscard]] bool is_binary() const noexcept { return opcode_is_binary(opcode_); }
  [[nodiscard]] bool is_cast() const noexcept { return opcode_is_cast(opcode_); }
  [[nodiscard]] bool is_terminator() const noexcept { return opcode_is_terminator(opcode_); }
  [[nodiscard]] bool is_phi() const noexcept { return opcode_ == Opcode::kPhi; }
  [[nodiscard]] bool is_commutative() const noexcept { return opcode_is_commutative(opcode_); }

  [[nodiscard]] bool may_read_memory() const noexcept;
  [[nodiscard]] bool may_write_memory() const noexcept;
  /// True for instructions that must not be deleted even when unused
  /// (stores, mem intrinsics, calls to non-readnone functions, terminators).
  [[nodiscard]] bool has_side_effects() const noexcept;
  /// Pure: no memory access, no side effects (always speculatable here).
  [[nodiscard]] bool is_pure() const noexcept;

  // ---- Operands ----
  [[nodiscard]] std::size_t operand_count() const noexcept { return operands_.size(); }
  [[nodiscard]] Value* operand(std::size_t i) const noexcept {
    assert(i < operands_.size());
    return operands_[i];
  }
  void set_operand(std::size_t i, Value* value);
  [[nodiscard]] const std::vector<Value*>& operands() const noexcept { return operands_; }
  /// True if any operand slot references `value`.
  [[nodiscard]] bool uses_value(const Value* value) const noexcept;
  /// Replace every operand slot equal to `from` with `to`.
  void replace_uses_of(Value* from, Value* to);

  // ---- ICmp ----
  [[nodiscard]] ICmpPred icmp_pred() const noexcept {
    assert(opcode_ == Opcode::kICmp);
    return icmp_pred_;
  }
  void set_icmp_pred(ICmpPred pred) noexcept { icmp_pred_ = pred; }

  // ---- Call ----
  [[nodiscard]] Function* callee() const noexcept {
    assert(opcode_ == Opcode::kCall);
    return callee_;
  }
  void set_callee(Function* callee) noexcept { callee_ = callee; }
  /// Drops argument operand `i` (for -deadargelim signature rewrites).
  void remove_call_arg(std::size_t i);

  // ---- Alloca ----
  [[nodiscard]] Type* allocated_type() const noexcept {
    assert(opcode_ == Opcode::kAlloca);
    return allocated_type_;
  }
  [[nodiscard]] std::size_t alloca_count() const noexcept {
    assert(opcode_ == Opcode::kAlloca);
    return alloca_count_;
  }

  // ---- Phi ----
  [[nodiscard]] std::size_t incoming_count() const noexcept { return incoming_blocks_.size(); }
  [[nodiscard]] Value* incoming_value(std::size_t i) const noexcept { return operand(i); }
  [[nodiscard]] BasicBlock* incoming_block(std::size_t i) const noexcept {
    assert(i < incoming_blocks_.size());
    return incoming_blocks_[i];
  }
  void add_incoming(Value* value, BasicBlock* block);
  void remove_incoming(std::size_t i);
  /// Index of the entry for `block`, or -1.
  [[nodiscard]] int incoming_index_for(const BasicBlock* block) const noexcept;
  [[nodiscard]] Value* incoming_for_block(const BasicBlock* block) const noexcept;
  void set_incoming_value(std::size_t i, Value* value) { set_operand(i, value); }
  void replace_incoming_block(BasicBlock* from, BasicBlock* to);

  // ---- Terminators ----
  [[nodiscard]] std::size_t successor_count() const noexcept { return successors_.size(); }
  [[nodiscard]] BasicBlock* successor(std::size_t i) const noexcept {
    assert(i < successors_.size());
    return successors_[i];
  }
  /// Update one successor slot, keeping predecessor lists consistent.
  void set_successor(std::size_t i, BasicBlock* block);
  /// Update every successor slot equal to `from` (and phi bookkeeping is the
  /// caller's job, as in LLVM).
  void replace_successor(BasicBlock* from, BasicBlock* to);
  /// Append a switch case (value, destination).
  void add_switch_case(ConstantInt* value, BasicBlock* dest);
  [[nodiscard]] std::size_t switch_case_count() const noexcept {
    assert(opcode_ == Opcode::kSwitch);
    return successors_.size() - 1;
  }

  // ---- Placement ----
  [[nodiscard]] BasicBlock* parent() const noexcept { return parent_; }
  /// Dense per-function id, issued afresh each time the instruction is
  /// linked into a block and never reused (see ir/id_table.hpp). Meaningless
  /// while unlinked.
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  /// Unlink and destroy. The instruction must have no remaining users.
  void erase_from_parent();

 private:
  friend class BasicBlock;

  Instruction(Opcode opcode, Type* type, std::string name)
      : Value(ValueKind::kInstruction, type, std::move(name)), opcode_(opcode) {}

  void add_operand(Value* value);
  void clear_operands();

  // Called by BasicBlock on link/unlink to maintain predecessor lists.
  void notify_linked();
  void notify_unlinked();

  Opcode opcode_;
  std::uint32_t id_ = 0;
  std::vector<Value*> operands_;
  std::vector<BasicBlock*> successors_;       // terminators only
  std::vector<BasicBlock*> incoming_blocks_;  // phi only
  ICmpPred icmp_pred_ = ICmpPred::kEq;
  Function* callee_ = nullptr;
  Type* allocated_type_ = nullptr;
  std::size_t alloca_count_ = 0;
  BasicBlock* parent_ = nullptr;
};

inline Instruction* as_instruction(Value* v) noexcept {
  return v != nullptr && v->value_kind() == ValueKind::kInstruction ? static_cast<Instruction*>(v)
                                                                    : nullptr;
}
inline const Instruction* as_instruction(const Value* v) noexcept {
  return v != nullptr && v->value_kind() == ValueKind::kInstruction
             ? static_cast<const Instruction*>(v)
             : nullptr;
}

}  // namespace autophase::ir
