// Structured code generation helper that emits Clang -O0 style IR: every
// local variable lives in an entry-block alloca and is accessed through
// load/store, loops are while-shaped (header: load+compare+condbr), and
// expressions are emitted as-is with no folding. This is the input shape the
// phase-ordering problem starts from — mem2reg/sroa must earn the SSA form,
// loop-rotate must earn the do-while form, exactly as in the paper's flow.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/builder.hpp"

namespace autophase::progen {

class CodeGen {
 public:
  /// Creates the entry block (alloca area) and the first body block.
  CodeGen(ir::Module& module, ir::Function& function);

  [[nodiscard]] ir::IRBuilder& b() noexcept { return builder_; }
  [[nodiscard]] ir::Module& module() noexcept { return *module_; }
  [[nodiscard]] ir::Function& function() noexcept { return *function_; }
  [[nodiscard]] ir::BasicBlock* current() noexcept { return current_; }

  // ---- Variables (entry-block allocas) ----
  ir::Value* local(ir::Type* type, const std::string& name);
  ir::Value* local_i32(const std::string& name) { return local(ir::Type::i32(), name); }
  ir::Value* array(ir::Type* elem, std::size_t count, const std::string& name);

  /// load/store shorthands.
  ir::Value* get(ir::Value* ptr) { return builder_.load(ptr); }
  void set(ir::Value* ptr, ir::Value* value) { builder_.store(value, ptr); }
  void set(ir::Value* ptr, std::int64_t value);
  /// Disambiguates integer literals (0 would otherwise match Value* too).
  void set(ir::Value* ptr, int value) { set(ptr, static_cast<std::int64_t>(value)); }

  /// &arr[i] with a power-of-two mask keeping the access in bounds (the
  /// generator's memory-safety discipline).
  ir::Value* elem_masked(ir::Value* array_ptr, ir::Value* index, std::size_t size_pow2);
  /// &arr[i] unmasked (for indices the caller guarantees in range).
  ir::Value* elem(ir::Value* array_ptr, ir::Value* index) {
    return builder_.gep(array_ptr, index);
  }
  ir::Value* elem(ir::Value* array_ptr, std::int64_t index);
  ir::Value* elem(ir::Value* array_ptr, int index) {
    return elem(array_ptr, static_cast<std::int64_t>(index));
  }

  // ---- Structured control flow ----
  using BodyFn = std::function<void()>;

  /// for (*iv = lo; *iv < hi; *iv += step) body();  -- while-shaped CFG.
  void count_loop(ir::Value* iv_ptr, ir::Value* lo, ir::Value* hi, std::int64_t step,
                  const BodyFn& body);
  void count_loop(ir::Value* iv_ptr, std::int64_t lo, std::int64_t hi, const BodyFn& body);

  void if_then(ir::Value* cond, const BodyFn& then_body);
  void if_then_else(ir::Value* cond, const BodyFn& then_body, const BodyFn& else_body);

  /// switch over constant cases; each case falls out to the join block.
  void switch_cases(ir::Value* selector,
                    const std::vector<std::pair<std::int64_t, BodyFn>>& cases,
                    const BodyFn& default_body);

  /// Terminates the current block with ret.
  void ret(ir::Value* value) { builder_.ret(value); }
  void ret(std::int64_t value);
  void ret(int value) { ret(static_cast<std::int64_t>(value)); }
  void ret_void() { builder_.ret_void(); }

 private:
  ir::BasicBlock* new_block(const std::string& name);
  void move_to(ir::BasicBlock* bb);

  ir::Module* module_;
  ir::Function* function_;
  ir::IRBuilder builder_;
  ir::BasicBlock* entry_;
  ir::BasicBlock* current_;
  int block_id_ = 0;
};

}  // namespace autophase::progen
