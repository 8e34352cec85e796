#include "ir/module.hpp"

#include <cassert>

namespace autophase::ir {

Function* Module::create_function(std::string name, Type* return_type,
                                  const std::vector<Type*>& param_types,
                                  std::vector<std::string> param_names) {
  assert(find_function(name) == nullptr && "duplicate function name");
  functions_.push_back(std::make_unique<Function>(this, std::move(name), return_type, param_types,
                                                  std::move(param_names)));
  functions_.back()->index_ = functions_.size() - 1;
  return functions_.back().get();
}

std::vector<Function*> Module::functions() const {
  std::vector<Function*> out;
  out.reserve(functions_.size());
  for (const auto& f : functions_) out.push_back(f.get());
  return out;
}

Function* Module::find_function(const std::string& name) const noexcept {
  for (const auto& f : functions_) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

void Module::erase_function(Function* f) {
  assert(owns(f) && "erase_function target not in module");
  functions_.erase(functions_.begin() + static_cast<std::ptrdiff_t>(f->index()));
  for (std::size_t i = 0; i < functions_.size(); ++i) functions_[i]->index_ = i;
}

GlobalVariable* Module::create_global(Type* element_type, std::size_t element_count,
                                      std::string name, std::vector<std::int64_t> init,
                                      bool is_constant_data) {
  globals_.push_back(std::make_unique<GlobalVariable>(element_type, element_count, std::move(name),
                                                      std::move(init), is_constant_data));
  globals_.back()->index_ = globals_.size() - 1;
  return globals_.back().get();
}

std::vector<GlobalVariable*> Module::globals() const {
  std::vector<GlobalVariable*> out;
  out.reserve(globals_.size());
  for (const auto& g : globals_) out.push_back(g.get());
  return out;
}

void Module::erase_global(GlobalVariable* g) {
  assert(!g->has_users() && "erasing a global that still has users");
  assert(owns(g) && "erase_global target not in module");
  globals_.erase(globals_.begin() + static_cast<std::ptrdiff_t>(g->index()));
  for (std::size_t i = 0; i < globals_.size(); ++i) globals_[i]->index_ = i;
}

ConstantInt* Module::get_int(Type* type, std::int64_t value) {
  assert(type->is_int());
  // Canonicalise to the sign-extended value of the type's width so that e.g.
  // i8 255 and i8 -1 intern to the same constant.
  if (type->bits() < 64) {
    const int shift = 64 - type->bits();
    value = (value << shift) >> shift;
  }
  const auto key = std::make_pair(type, value);
  auto it = int_constants_.find(key);
  if (it == int_constants_.end()) {
    it = int_constants_.emplace(key, std::make_unique<ConstantInt>(type, value)).first;
  }
  return it->second.get();
}

Undef* Module::get_undef(Type* type) {
  auto it = undefs_.find(type);
  if (it == undefs_.end()) {
    it = undefs_.emplace(type, std::make_unique<Undef>(type)).first;
  }
  return it->second.get();
}

std::size_t Module::instruction_count() const noexcept {
  std::size_t n = 0;
  for (const auto& f : functions_) n += f->instruction_count();
  return n;
}

bool Module::has_lazy_functions() const noexcept {
  for (const auto& f : functions_) {
    if (f->has_lazy_body()) return true;
  }
  return false;
}

void Module::materialize_all() {
  for (const auto& f : functions_) f->materialize();
}

}  // namespace autophase::ir
