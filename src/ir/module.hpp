// Module: the compilation unit. Owns functions, global variables, and the
// per-module constant pool (ConstantInt / Undef are interned per module so
// pointer equality is value equality within a module).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/function.hpp"
#include "support/arena.hpp"

namespace autophase::ir {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  /// Functions must be destroyed before the globals / constants their
  /// instructions reference (instruction teardown unregisters from operand
  /// use lists).
  ~Module() { functions_.clear(); }

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- Functions ----
  Function* create_function(std::string name, Type* return_type,
                            const std::vector<Type*>& param_types,
                            std::vector<std::string> param_names = {});
  [[nodiscard]] std::size_t function_count() const noexcept { return functions_.size(); }
  [[nodiscard]] Function* function(std::size_t i) const noexcept { return functions_[i].get(); }
  [[nodiscard]] std::vector<Function*> functions() const;
  [[nodiscard]] Function* find_function(const std::string& name) const noexcept;
  /// Entry point; by convention the function named "main".
  [[nodiscard]] Function* main() const noexcept { return find_function("main"); }
  /// Destroys a function (no remaining call sites allowed) and renumbers
  /// the ones after it.
  void erase_function(Function* f);
  /// True when `f` is this module's function at f->index(); false for a
  /// function of another module.
  [[nodiscard]] bool owns(const Function* f) const noexcept {
    return f->index() < functions_.size() && functions_[f->index()].get() == f;
  }

  // ---- Globals ----
  GlobalVariable* create_global(Type* element_type, std::size_t element_count, std::string name,
                                std::vector<std::int64_t> init = {}, bool is_constant_data = false);
  [[nodiscard]] std::size_t global_count() const noexcept { return globals_.size(); }
  [[nodiscard]] GlobalVariable* global(std::size_t i) const noexcept { return globals_[i].get(); }
  [[nodiscard]] std::vector<GlobalVariable*> globals() const;
  /// Destroys a global (no remaining users allowed) and renumbers the ones
  /// after it.
  void erase_global(GlobalVariable* g);
  /// True when `g` is this module's global at g->index().
  [[nodiscard]] bool owns(const GlobalVariable* g) const noexcept {
    return g->index() < globals_.size() && globals_[g->index()].get() == g;
  }

  // ---- Constants (interned per module) ----
  ConstantInt* get_int(Type* type, std::int64_t value);
  ConstantInt* get_i1(bool value) { return get_int(Type::i1(), value ? 1 : 0); }
  ConstantInt* get_i32(std::int64_t value) { return get_int(Type::i32(), value); }
  ConstantInt* get_i64(std::int64_t value) { return get_int(Type::i64(), value); }
  Undef* get_undef(Type* type);

  /// Total instruction count across all functions.
  [[nodiscard]] std::size_t instruction_count() const noexcept;

  // ---- Arena / copy-on-write rollout state (see ir/clone.hpp) ----
  /// Arena backing this module's IR nodes; null for plain heap modules.
  [[nodiscard]] support::Arena* arena() const noexcept { return arena_.get(); }
  /// Installs the arena handle. Must happen before any node is created under
  /// its ArenaScope, so node lifetimes are bounded by the arena's.
  void adopt_arena(std::shared_ptr<support::Arena> arena) noexcept {
    arena_ = std::move(arena);
  }

  [[nodiscard]] bool has_lazy_functions() const noexcept;
  /// Deep-copies every still-lazy function body and severs the tie to the
  /// CoW source module. Passes require this up front (passes::apply_pass
  /// does it): while any function is lazy, the clone-side user lists of
  /// globals and arguments are incomplete, and an IPO/DCE pass trusting
  /// them could wrongly erase live defs.
  void materialize_all();

 private:
  // Declared first so it is destroyed last: the nodes owned below may live
  // in this arena, and their destructors must run before the chunks go.
  std::shared_ptr<support::Arena> arena_;
  std::string name_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::map<std::pair<Type*, std::int64_t>, std::unique_ptr<ConstantInt>> int_constants_;
  std::map<Type*, std::unique_ptr<Undef>> undefs_;
};

}  // namespace autophase::ir
