#include "ir/function.hpp"

#include <cassert>

#include "ir/module.hpp"

namespace autophase::ir {

Function::Function(Module* parent, std::string name, Type* return_type,
                   const std::vector<Type*>& param_types, std::vector<std::string> param_names)
    : parent_(parent), name_(std::move(name)), return_type_(return_type) {
  args_.reserve(param_types.size());
  for (std::size_t i = 0; i < param_types.size(); ++i) {
    std::string arg_name =
        i < param_names.size() ? param_names[i] : ("arg" + std::to_string(i));
    args_.push_back(std::make_unique<Argument>(param_types[i], std::move(arg_name), this,
                                               static_cast<unsigned>(i)));
  }
}

Function::~Function() {
  // Drop every operand / successor reference while all values are still
  // alive, so instruction destruction order cannot matter (LLVM's
  // dropAllReferences discipline).
  for (auto& bb : blocks_) bb->drop_all_references();
}

std::vector<Argument*> Function::args() const {
  std::vector<Argument*> out;
  out.reserve(args_.size());
  for (const auto& a : args_) out.push_back(a.get());
  return out;
}

void Function::remove_arg(std::size_t i) {
  assert(i < args_.size());
  assert(!args_[i]->has_users() && "removing an argument that still has users");
  args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
  for (std::size_t j = 0; j < args_.size(); ++j) args_[j]->set_index(static_cast<unsigned>(j));
}

std::vector<BasicBlock*> Function::blocks() const {
  materialize();
  std::vector<BasicBlock*> out;
  out.reserve(blocks_.size());
  for (const auto& bb : blocks_) out.push_back(bb.get());
  return out;
}

BasicBlock* Function::create_block(std::string name) {
  // Deliberately no materialize(): clone_blocks() appends the destination
  // blocks of an in-flight materialisation through here. A lazy function
  // whose body is *extended* rather than read first cannot occur — every
  // read/mutation path reaches the body through the materialising
  // accessors above.
  blocks_.push_back(std::make_unique<BasicBlock>(this, next_block_id_++, std::move(name)));
  return blocks_.back().get();
}

BasicBlock* Function::create_block_after(BasicBlock* after, std::string name) {
  materialize();
  const int idx = index_of(after);
  assert(idx >= 0);
  auto bb = std::make_unique<BasicBlock>(this, next_block_id_++, std::move(name));
  BasicBlock* raw = bb.get();
  blocks_.insert(blocks_.begin() + idx + 1, std::move(bb));
  return raw;
}

void Function::erase_block(BasicBlock* bb) {
  materialize();
  const int idx = index_of(bb);
  assert(idx >= 0 && "erase_block target not in function");
  // Unregister all references this block's instructions hold while every
  // referenced value is still alive; intra-block use cycles (phis) make
  // per-instruction erase order-sensitive, so drop wholesale.
  bb->drop_all_references();
  blocks_.erase(blocks_.begin() + idx);
}

int Function::index_of(const BasicBlock* bb) const {
  materialize();
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].get() == bb) return static_cast<int>(i);
  }
  return -1;
}

void Function::move_block(BasicBlock* bb, std::size_t index) {
  materialize();
  const int from = index_of(bb);
  assert(from >= 0 && index < blocks_.size());
  auto owned = std::move(blocks_[static_cast<std::size_t>(from)]);
  blocks_.erase(blocks_.begin() + from);
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(index), std::move(owned));
}

std::size_t Function::instruction_count() const noexcept {
  // Read-through while lazy: the source body is bit-identical to what
  // materialisation would build, so counting it is exact and free.
  if (cow_source_ != nullptr) return cow_source_->instruction_count();
  std::size_t n = 0;
  for (const auto& bb : blocks_) n += bb->size();
  return n;
}

}  // namespace autophase::ir
