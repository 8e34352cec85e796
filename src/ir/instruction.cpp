#include "ir/instruction.hpp"

#include <algorithm>

#include "ir/basic_block.hpp"
#include "ir/function.hpp"

namespace autophase::ir {

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kSDiv: return "sdiv";
    case Opcode::kUDiv: return "udiv";
    case Opcode::kSRem: return "srem";
    case Opcode::kURem: return "urem";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kLShr: return "lshr";
    case Opcode::kAShr: return "ashr";
    case Opcode::kICmp: return "icmp";
    case Opcode::kZExt: return "zext";
    case Opcode::kSExt: return "sext";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kBitCast: return "bitcast";
    case Opcode::kSelect: return "select";
    case Opcode::kPhi: return "phi";
    case Opcode::kAlloca: return "alloca";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kGep: return "getelementptr";
    case Opcode::kMemSet: return "memset";
    case Opcode::kMemCpy: return "memcpy";
    case Opcode::kCall: return "call";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
    case Opcode::kSwitch: return "switch";
    case Opcode::kRet: return "ret";
    case Opcode::kUnreachable: return "unreachable";
  }
  return "?";
}

const char* icmp_pred_name(ICmpPred pred) noexcept {
  switch (pred) {
    case ICmpPred::kEq: return "eq";
    case ICmpPred::kNe: return "ne";
    case ICmpPred::kSlt: return "slt";
    case ICmpPred::kSle: return "sle";
    case ICmpPred::kSgt: return "sgt";
    case ICmpPred::kSge: return "sge";
    case ICmpPred::kUlt: return "ult";
    case ICmpPred::kUle: return "ule";
    case ICmpPred::kUgt: return "ugt";
    case ICmpPred::kUge: return "uge";
  }
  return "?";
}

bool opcode_is_binary(Opcode op) noexcept {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kSDiv:
    case Opcode::kUDiv:
    case Opcode::kSRem:
    case Opcode::kURem:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kLShr:
    case Opcode::kAShr: return true;
    default: return false;
  }
}

bool opcode_is_cast(Opcode op) noexcept {
  return op == Opcode::kZExt || op == Opcode::kSExt || op == Opcode::kTrunc ||
         op == Opcode::kBitCast;
}

bool opcode_is_terminator(Opcode op) noexcept {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kSwitch ||
         op == Opcode::kRet || op == Opcode::kUnreachable;
}

bool opcode_is_commutative(Opcode op) noexcept {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor: return true;
    default: return false;
  }
}

ICmpPred icmp_swapped(ICmpPred pred) noexcept {
  switch (pred) {
    case ICmpPred::kEq: return ICmpPred::kEq;
    case ICmpPred::kNe: return ICmpPred::kNe;
    case ICmpPred::kSlt: return ICmpPred::kSgt;
    case ICmpPred::kSle: return ICmpPred::kSge;
    case ICmpPred::kSgt: return ICmpPred::kSlt;
    case ICmpPred::kSge: return ICmpPred::kSle;
    case ICmpPred::kUlt: return ICmpPred::kUgt;
    case ICmpPred::kUle: return ICmpPred::kUge;
    case ICmpPred::kUgt: return ICmpPred::kUlt;
    case ICmpPred::kUge: return ICmpPred::kUle;
  }
  return pred;
}

Instruction::~Instruction() { clear_operands(); }

void Instruction::add_operand(Value* value) {
  assert(value != nullptr);
  operands_.push_back(value);
  value->add_user(this);
}

void Instruction::clear_operands() {
  for (Value* v : operands_) v->remove_user(this);
  operands_.clear();
}

void Instruction::set_operand(std::size_t i, Value* value) {
  assert(i < operands_.size());
  assert(value != nullptr);
  operands_[i]->remove_user(this);
  operands_[i] = value;
  value->add_user(this);
}

bool Instruction::uses_value(const Value* value) const noexcept {
  return std::find(operands_.begin(), operands_.end(), value) != operands_.end();
}

void Instruction::replace_uses_of(Value* from, Value* to) {
  for (std::size_t i = 0; i < operands_.size(); ++i) {
    if (operands_[i] == from) set_operand(i, to);
  }
}

// ---- Factories ----

std::unique_ptr<Instruction> Instruction::binary(Opcode op, Value* lhs, Value* rhs,
                                                 std::string name) {
  assert(opcode_is_binary(op));
  assert(lhs->type() == rhs->type() && lhs->type()->is_int());
  auto inst = std::unique_ptr<Instruction>(new Instruction(op, lhs->type(), std::move(name)));
  inst->add_operand(lhs);
  inst->add_operand(rhs);
  return inst;
}

std::unique_ptr<Instruction> Instruction::icmp(ICmpPred pred, Value* lhs, Value* rhs,
                                               std::string name) {
  assert(lhs->type() == rhs->type());
  auto inst =
      std::unique_ptr<Instruction>(new Instruction(Opcode::kICmp, Type::i1(), std::move(name)));
  inst->icmp_pred_ = pred;
  inst->add_operand(lhs);
  inst->add_operand(rhs);
  return inst;
}

std::unique_ptr<Instruction> Instruction::cast(Opcode op, Value* value, Type* to,
                                               std::string name) {
  assert(opcode_is_cast(op));
  auto inst = std::unique_ptr<Instruction>(new Instruction(op, to, std::move(name)));
  inst->add_operand(value);
  return inst;
}

std::unique_ptr<Instruction> Instruction::select(Value* cond, Value* if_true, Value* if_false,
                                                 std::string name) {
  assert(cond->type() == Type::i1());
  assert(if_true->type() == if_false->type());
  auto inst = std::unique_ptr<Instruction>(
      new Instruction(Opcode::kSelect, if_true->type(), std::move(name)));
  inst->add_operand(cond);
  inst->add_operand(if_true);
  inst->add_operand(if_false);
  return inst;
}

std::unique_ptr<Instruction> Instruction::phi(Type* type, std::string name) {
  return std::unique_ptr<Instruction>(new Instruction(Opcode::kPhi, type, std::move(name)));
}

std::unique_ptr<Instruction> Instruction::alloca_inst(Type* element_type, std::size_t count,
                                                      std::string name) {
  assert(count >= 1);
  auto inst = std::unique_ptr<Instruction>(
      new Instruction(Opcode::kAlloca, Type::pointer_to(element_type), std::move(name)));
  inst->allocated_type_ = element_type;
  inst->alloca_count_ = count;
  return inst;
}

std::unique_ptr<Instruction> Instruction::load(Value* pointer, std::string name) {
  assert(pointer->type()->is_pointer());
  auto inst = std::unique_ptr<Instruction>(
      new Instruction(Opcode::kLoad, pointer->type()->pointee(), std::move(name)));
  inst->add_operand(pointer);
  return inst;
}

std::unique_ptr<Instruction> Instruction::store(Value* value, Value* pointer) {
  assert(pointer->type()->is_pointer());
  assert(pointer->type()->pointee() == value->type());
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kStore, Type::void_ty(), ""));
  inst->add_operand(value);
  inst->add_operand(pointer);
  return inst;
}

std::unique_ptr<Instruction> Instruction::gep(Value* pointer, Value* index, std::string name) {
  assert(pointer->type()->is_pointer());
  assert(index->type()->is_int());
  auto inst = std::unique_ptr<Instruction>(
      new Instruction(Opcode::kGep, pointer->type(), std::move(name)));
  inst->add_operand(pointer);
  inst->add_operand(index);
  return inst;
}

std::unique_ptr<Instruction> Instruction::mem_set(Value* dst, Value* value, Value* count) {
  assert(dst->type()->is_pointer());
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kMemSet, Type::void_ty(), ""));
  inst->add_operand(dst);
  inst->add_operand(value);
  inst->add_operand(count);
  return inst;
}

std::unique_ptr<Instruction> Instruction::mem_cpy(Value* dst, Value* src, Value* count) {
  assert(dst->type()->is_pointer() && src->type()->is_pointer());
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kMemCpy, Type::void_ty(), ""));
  inst->add_operand(dst);
  inst->add_operand(src);
  inst->add_operand(count);
  return inst;
}

std::unique_ptr<Instruction> Instruction::call(Function* callee, std::vector<Value*> args,
                                               std::string name) {
  assert(callee != nullptr);
  assert(args.size() == callee->arg_count());
  auto inst = std::unique_ptr<Instruction>(
      new Instruction(Opcode::kCall, callee->return_type(), std::move(name)));
  inst->callee_ = callee;
  for (Value* a : args) inst->add_operand(a);
  return inst;
}

std::unique_ptr<Instruction> Instruction::br(BasicBlock* target) {
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kBr, Type::void_ty(), ""));
  inst->successors_.push_back(target);
  return inst;
}

std::unique_ptr<Instruction> Instruction::cond_br(Value* cond, BasicBlock* if_true,
                                                  BasicBlock* if_false) {
  assert(cond->type() == Type::i1());
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kCondBr, Type::void_ty(), ""));
  inst->add_operand(cond);
  inst->successors_.push_back(if_true);
  inst->successors_.push_back(if_false);
  return inst;
}

std::unique_ptr<Instruction> Instruction::switch_inst(Value* value, BasicBlock* default_dest) {
  assert(value->type()->is_int());
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kSwitch, Type::void_ty(), ""));
  inst->add_operand(value);
  inst->successors_.push_back(default_dest);
  return inst;
}

std::unique_ptr<Instruction> Instruction::ret(Value* value) {
  auto inst = std::unique_ptr<Instruction>(new Instruction(Opcode::kRet, Type::void_ty(), ""));
  if (value != nullptr) inst->add_operand(value);
  return inst;
}

std::unique_ptr<Instruction> Instruction::unreachable() {
  return std::unique_ptr<Instruction>(new Instruction(Opcode::kUnreachable, Type::void_ty(), ""));
}

std::unique_ptr<Instruction> Instruction::clone() const {
  auto inst = clone_unbound();
  for (Value* op : inst->operands_) op->add_user(inst.get());
  return inst;
}

std::unique_ptr<Instruction> Instruction::clone_unbound() const {
  auto inst = std::unique_ptr<Instruction>(new Instruction(opcode_, type(), name()));
  inst->operands_ = operands_;      // user lists untouched; see bind_operand
  inst->successors_ = successors_;  // preds update on link
  inst->incoming_blocks_ = incoming_blocks_;
  inst->icmp_pred_ = icmp_pred_;
  inst->callee_ = callee_;
  inst->allocated_type_ = allocated_type_;
  inst->alloca_count_ = alloca_count_;
  return inst;
}

void Instruction::bind_operand(std::size_t i, Value* value) {
  assert(i < operands_.size());
  assert(value != nullptr);
  operands_[i] = value;
  value->add_user(this);
}

// ---- Behaviour queries ----

bool Instruction::may_read_memory() const noexcept {
  switch (opcode_) {
    case Opcode::kLoad:
    case Opcode::kMemCpy: return true;
    case Opcode::kCall: return callee_ == nullptr || !callee_->attrs().readnone;
    default: return false;
  }
}

bool Instruction::may_write_memory() const noexcept {
  switch (opcode_) {
    case Opcode::kStore:
    case Opcode::kMemSet:
    case Opcode::kMemCpy: return true;
    case Opcode::kCall:
      return callee_ == nullptr || (!callee_->attrs().readnone && !callee_->attrs().readonly);
    default: return false;
  }
}

bool Instruction::has_side_effects() const noexcept {
  if (is_terminator()) return true;
  if (opcode_ == Opcode::kCall) return may_write_memory();
  return opcode_ == Opcode::kStore || opcode_ == Opcode::kMemSet || opcode_ == Opcode::kMemCpy;
}

bool Instruction::is_pure() const noexcept {
  switch (opcode_) {
    case Opcode::kAlloca:
    case Opcode::kLoad:
    case Opcode::kStore:
    case Opcode::kMemSet:
    case Opcode::kMemCpy:
    case Opcode::kCall:
    case Opcode::kPhi: return false;
    default: return !is_terminator();
  }
}

// ---- Phi bookkeeping ----

void Instruction::add_incoming(Value* value, BasicBlock* block) {
  assert(opcode_ == Opcode::kPhi);
  assert(value->type() == type());
  add_operand(value);
  incoming_blocks_.push_back(block);
}

void Instruction::remove_incoming(std::size_t i) {
  assert(opcode_ == Opcode::kPhi && i < incoming_blocks_.size());
  operands_[i]->remove_user(this);
  operands_.erase(operands_.begin() + static_cast<std::ptrdiff_t>(i));
  incoming_blocks_.erase(incoming_blocks_.begin() + static_cast<std::ptrdiff_t>(i));
}

int Instruction::incoming_index_for(const BasicBlock* block) const noexcept {
  for (std::size_t i = 0; i < incoming_blocks_.size(); ++i) {
    if (incoming_blocks_[i] == block) return static_cast<int>(i);
  }
  return -1;
}

Value* Instruction::incoming_for_block(const BasicBlock* block) const noexcept {
  const int idx = incoming_index_for(block);
  return idx < 0 ? nullptr : operands_[static_cast<std::size_t>(idx)];
}

void Instruction::replace_incoming_block(BasicBlock* from, BasicBlock* to) {
  assert(opcode_ == Opcode::kPhi);
  for (auto& bb : incoming_blocks_) {
    if (bb == from) bb = to;
  }
}

// ---- Terminator bookkeeping ----

void Instruction::set_successor(std::size_t i, BasicBlock* block) {
  assert(is_terminator() && i < successors_.size());
  if (parent_ != nullptr) {
    successors_[i]->remove_pred(parent_);
    block->add_pred(parent_);
  }
  successors_[i] = block;
}

void Instruction::replace_successor(BasicBlock* from, BasicBlock* to) {
  for (std::size_t i = 0; i < successors_.size(); ++i) {
    if (successors_[i] == from) set_successor(i, to);
  }
}

void Instruction::add_switch_case(ConstantInt* value, BasicBlock* dest) {
  assert(opcode_ == Opcode::kSwitch);
  add_operand(value);
  successors_.push_back(dest);
  if (parent_ != nullptr) dest->add_pred(parent_);
}

void Instruction::remove_call_arg(std::size_t i) {
  assert(opcode_ == Opcode::kCall && i < operands_.size());
  operands_[i]->remove_user(this);
  operands_.erase(operands_.begin() + static_cast<std::ptrdiff_t>(i));
}

void Instruction::erase_from_parent() {
  assert(parent_ != nullptr);
  assert(!has_users() && "erasing an instruction that still has users");
  parent_->erase(this);
}

void Instruction::notify_linked() {
  if (is_terminator()) {
    for (BasicBlock* succ : successors_) succ->add_pred(parent_);
  }
}

void Instruction::notify_unlinked() {
  if (is_terminator()) {
    for (BasicBlock* succ : successors_) succ->remove_pred(parent_);
  }
  parent_ = nullptr;
}

}  // namespace autophase::ir
