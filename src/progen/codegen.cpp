#include "progen/codegen.hpp"

#include <cassert>

namespace autophase::progen {

using ir::BasicBlock;
using ir::ICmpPred;
using ir::Instruction;
using ir::Type;
using ir::Value;

CodeGen::CodeGen(ir::Module& module, ir::Function& function)
    : module_(&module), function_(&function), builder_(module) {
  entry_ = function.create_block("entry");
  BasicBlock* body = function.create_block("body");
  builder_.set_insert_point(entry_);
  builder_.br(body);
  current_ = body;
  builder_.set_insert_point(body);
}

BasicBlock* CodeGen::new_block(const std::string& name) {
  return function_->create_block(name + std::to_string(block_id_++));
}

void CodeGen::move_to(BasicBlock* bb) {
  current_ = bb;
  builder_.set_insert_point(bb);
}

Value* CodeGen::local(Type* type, const std::string& name) {
  // Allocas live at the top of the entry block, before its terminator.
  Instruction* alloca_inst =
      entry_->insert_at(entry_->size() - 1, Instruction::alloca_inst(type, 1, name));
  return alloca_inst;
}

Value* CodeGen::array(Type* elem, std::size_t count, const std::string& name) {
  Instruction* alloca_inst =
      entry_->insert_at(entry_->size() - 1, Instruction::alloca_inst(elem, count, name));
  return alloca_inst;
}

void CodeGen::set(Value* ptr, std::int64_t value) {
  set(ptr, module_->get_int(ptr->type()->pointee(), value));
}

Value* CodeGen::elem_masked(Value* array_ptr, Value* index, std::size_t size_pow2) {
  assert((size_pow2 & (size_pow2 - 1)) == 0 && size_pow2 > 0);
  Value* masked = builder_.and_(
      index, module_->get_int(index->type(), static_cast<std::int64_t>(size_pow2 - 1)));
  return builder_.gep(array_ptr, masked);
}

Value* CodeGen::elem(Value* array_ptr, std::int64_t index) {
  return builder_.gep(array_ptr, module_->get_i64(index));
}

void CodeGen::count_loop(Value* iv_ptr, Value* lo, Value* hi, std::int64_t step,
                         const BodyFn& body) {
  Type* iv_type = iv_ptr->type()->pointee();
  set(iv_ptr, lo);
  BasicBlock* header = new_block("for.h");
  BasicBlock* body_bb = new_block("for.b");
  BasicBlock* exit_bb = new_block("for.e");

  builder_.br(header);
  move_to(header);
  Value* iv = get(iv_ptr);
  Value* cond = builder_.icmp(ICmpPred::kSlt, iv, hi);
  builder_.cond_br(cond, body_bb, exit_bb);

  move_to(body_bb);
  body();
  // Latch: increment and loop.
  Value* iv2 = get(iv_ptr);
  set(iv_ptr, builder_.add(iv2, module_->get_int(iv_type, step)));
  builder_.br(header);

  move_to(exit_bb);
}

void CodeGen::count_loop(Value* iv_ptr, std::int64_t lo, std::int64_t hi, const BodyFn& body) {
  Type* iv_type = iv_ptr->type()->pointee();
  count_loop(iv_ptr, module_->get_int(iv_type, lo), module_->get_int(iv_type, hi), 1, body);
}

void CodeGen::if_then(Value* cond, const BodyFn& then_body) {
  BasicBlock* then_bb = new_block("if.t");
  BasicBlock* join = new_block("if.j");
  builder_.cond_br(cond, then_bb, join);
  move_to(then_bb);
  then_body();
  builder_.br(join);
  move_to(join);
}

void CodeGen::if_then_else(Value* cond, const BodyFn& then_body, const BodyFn& else_body) {
  BasicBlock* then_bb = new_block("if.t");
  BasicBlock* else_bb = new_block("if.f");
  BasicBlock* join = new_block("if.j");
  builder_.cond_br(cond, then_bb, else_bb);
  move_to(then_bb);
  then_body();
  builder_.br(join);
  move_to(else_bb);
  else_body();
  builder_.br(join);
  move_to(join);
}

void CodeGen::switch_cases(Value* selector,
                           const std::vector<std::pair<std::int64_t, BodyFn>>& cases,
                           const BodyFn& default_body) {
  BasicBlock* default_bb = new_block("sw.d");
  BasicBlock* join = new_block("sw.j");
  Instruction* sw = builder_.switch_inst(selector, default_bb);
  std::vector<BasicBlock*> case_blocks;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    BasicBlock* cb = new_block("sw.c");
    sw->add_switch_case(module_->get_int(selector->type(), cases[i].first), cb);
    case_blocks.push_back(cb);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    move_to(case_blocks[i]);
    cases[i].second();
    builder_.br(join);
  }
  move_to(default_bb);
  default_body();
  builder_.br(join);
  move_to(join);
}

void CodeGen::ret(std::int64_t value) {
  builder_.ret(module_->get_int(function_->return_type(), value));
}

}  // namespace autophase::progen
