// IRBuilder: convenience layer for constructing IR (used by the program
// generators, the CHStone-like kernels, tests, and passes that synthesise
// code). Appends at the insert block's end; emits exactly what is asked for
// (no folding — canonicalisation is the optimiser's job, and the RL problem
// needs unoptimised -O0 input).
#pragma once

#include <string>
#include <vector>

#include "ir/module.hpp"

namespace autophase::ir {

class IRBuilder {
 public:
  explicit IRBuilder(Module& module) : module_(&module) {}

  [[nodiscard]] Module& module() const noexcept { return *module_; }
  void set_insert_point(BasicBlock* block) noexcept { block_ = block; }

  // ---- Constants ----
  ConstantInt* i1(bool v) { return module_->get_i1(v); }
  ConstantInt* i32(std::int64_t v) { return module_->get_i32(v); }
  ConstantInt* i64(std::int64_t v) { return module_->get_i64(v); }

  // ---- Value ops ----
  Value* binary(Opcode op, Value* a, Value* b, std::string name = "");
  Value* add(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kAdd, a, b, std::move(name));
  }
  Value* sub(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kSub, a, b, std::move(name));
  }
  Value* mul(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kMul, a, b, std::move(name));
  }
  Value* sdiv(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kSDiv, a, b, std::move(name));
  }
  Value* udiv(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kUDiv, a, b, std::move(name));
  }
  Value* srem(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kSRem, a, b, std::move(name));
  }
  Value* urem(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kURem, a, b, std::move(name));
  }
  Value* and_(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kAnd, a, b, std::move(name));
  }
  Value* or_(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kOr, a, b, std::move(name));
  }
  Value* xor_(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kXor, a, b, std::move(name));
  }
  Value* shl(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kShl, a, b, std::move(name));
  }
  Value* lshr(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kLShr, a, b, std::move(name));
  }
  Value* ashr(Value* a, Value* b, std::string name = "") {
    return binary(Opcode::kAShr, a, b, std::move(name));
  }

  Value* icmp(ICmpPred pred, Value* a, Value* b, std::string name = "");
  Value* icmp_eq(Value* a, Value* b, std::string name = "") {
    return icmp(ICmpPred::kEq, a, b, std::move(name));
  }
  Value* icmp_ne(Value* a, Value* b, std::string name = "") {
    return icmp(ICmpPred::kNe, a, b, std::move(name));
  }
  Value* icmp_slt(Value* a, Value* b, std::string name = "") {
    return icmp(ICmpPred::kSlt, a, b, std::move(name));
  }
  Value* icmp_sgt(Value* a, Value* b, std::string name = "") {
    return icmp(ICmpPred::kSgt, a, b, std::move(name));
  }
  Value* icmp_sge(Value* a, Value* b, std::string name = "") {
    return icmp(ICmpPred::kSge, a, b, std::move(name));
  }

  Value* zext(Value* v, Type* to, std::string name = "");
  Value* sext(Value* v, Type* to, std::string name = "");
  Value* trunc(Value* v, Type* to, std::string name = "");
  Value* bitcast(Value* v, Type* to, std::string name = "");
  Value* select(Value* cond, Value* if_true, Value* if_false, std::string name = "");
  Instruction* phi(Type* type, std::string name = "");

  // ---- Memory ----
  Instruction* alloca_scalar(Type* element_type, std::string name = "");
  Instruction* alloca_array(Type* element_type, std::size_t count, std::string name = "");
  Value* load(Value* pointer, std::string name = "");
  Instruction* store(Value* value, Value* pointer);
  Value* gep(Value* pointer, Value* index, std::string name = "");
  Instruction* mem_set(Value* dst, Value* value, Value* count);
  Instruction* mem_cpy(Value* dst, Value* src, Value* count);

  // ---- Calls / control flow ----
  Value* call(Function* callee, std::vector<Value*> args, std::string name = "");
  Instruction* br(BasicBlock* target);
  Instruction* cond_br(Value* cond, BasicBlock* if_true, BasicBlock* if_false);
  Instruction* switch_inst(Value* value, BasicBlock* default_dest);
  Instruction* ret(Value* value);
  Instruction* ret_void() { return ret(nullptr); }

 private:
  Instruction* append(std::unique_ptr<Instruction> inst);

  Module* module_;
  BasicBlock* block_ = nullptr;
};

}  // namespace autophase::ir
