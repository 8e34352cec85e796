// Memory-to-register promotion family of Table 1:
//   -mem2reg        : promote scalar allocas to SSA (phi placement + rename)
//   -scalarrepl     : split small aggregate allocas into scalars
//   -scalarrepl-ssa : split + promote the resulting scalars
//   -sroa           : modern replacement: bigger thresholds, split + promote
//                     everything promotable
#include <vector>

#include "passes/all_passes.hpp"
#include "passes/util.hpp"

namespace autophase::passes {

namespace {

using ir::BasicBlock;
using ir::ConstantInt;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;

/// Splits entry-block array allocas whose every access resolves to a
/// constant element index into one scalar alloca per element. Returns the
/// scalars created (for optional promotion).
std::vector<Instruction*> split_array_allocas(Function& f, std::size_t max_elements) {
  std::vector<Instruction*> created;
  if (f.entry() == nullptr) return created;

  // Collect the candidate allocas before rewriting anything: splitting one
  // alloca erases its geps, and a plain instructions() snapshot would keep
  // dangling pointers to those for later iterations (erased geps can never
  // be allocas, so this worklist stays valid throughout).
  std::vector<Instruction*> allocas;
  for (Instruction* inst : f.entry()->instructions()) {
    if (inst->opcode() == Opcode::kAlloca) allocas.push_back(inst);
  }
  for (Instruction* alloca_inst : allocas) {
    const std::size_t count = alloca_inst->alloca_count();
    if (count < 2 || count > max_elements) continue;

    // Validate: users are constant-index geps feeding only loads/stores, or
    // direct loads/stores (element 0).
    bool ok = true;
    std::vector<Instruction*> geps;
    for (Instruction* user : alloca_inst->users()) {
      if (user->opcode() == Opcode::kGep && user->operand(0) == alloca_inst) {
        const ConstantInt* idx = ir::as_constant_int(user->operand(1));
        if (idx == nullptr || idx->value() < 0 ||
            idx->value() >= static_cast<std::int64_t>(count)) {
          ok = false;
          break;
        }
        for (Instruction* gu : user->users()) {
          const bool mem_ok =
              (gu->opcode() == Opcode::kLoad && gu->operand(0) == user) ||
              (gu->opcode() == Opcode::kStore && gu->operand(1) == user &&
               gu->operand(0) != user);
          if (!mem_ok) {
            ok = false;
            break;
          }
        }
        geps.push_back(user);
      } else if ((user->opcode() == Opcode::kLoad && user->operand(0) == alloca_inst) ||
                 (user->opcode() == Opcode::kStore && user->operand(1) == alloca_inst &&
                  user->operand(0) != alloca_inst)) {
        // Direct access = element 0.
      } else {
        ok = false;
      }
      if (!ok) break;
    }
    if (!ok) continue;

    // Create scalars lazily per touched index.
    std::vector<Instruction*> scalars(count, nullptr);
    auto scalar_for = [&](std::int64_t idx) {
      auto& slot = scalars[static_cast<std::size_t>(idx)];
      if (slot == nullptr) {
        slot = f.entry()->insert_before(
            alloca_inst,
            Instruction::alloca_inst(alloca_inst->allocated_type(), 1,
                                     alloca_inst->name() + ".elt" + std::to_string(idx)));
        created.push_back(slot);
      }
      return slot;
    };

    for (Instruction* gep : geps) {
      const std::int64_t idx = ir::as_constant_int(gep->operand(1))->value();
      gep->replace_all_uses_with(scalar_for(idx));
      gep->erase_from_parent();
    }
    // Remaining direct loads/stores target element 0.
    const auto direct = alloca_inst->users();
    for (Instruction* user :
         std::vector<Instruction*>(direct.begin(), direct.end())) {
      user->replace_uses_of(alloca_inst, scalar_for(0));
    }
    alloca_inst->erase_from_parent();
  }
  return created;
}

class Mem2RegPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      changed |= promote_allocas(*f, find_promotable_allocas(*f)) > 0;
    }
    return changed;
  }
};

class ScalarReplPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      changed |= !split_array_allocas(*f, kMaxElements).empty();
    }
    return changed;
  }

 private:
  static constexpr std::size_t kMaxElements = 32;
};

class ScalarReplSSAPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      const auto scalars = split_array_allocas(*f, kMaxElements);
      changed |= !scalars.empty();
      changed |= promote_allocas(*f, scalars) > 0;
    }
    return changed;
  }

 private:
  static constexpr std::size_t kMaxElements = 32;
};

class SROAPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      changed |= !split_array_allocas(*f, kMaxElements).empty();
      // Promote everything promotable, split scalars included.
      changed |= promote_allocas(*f, find_promotable_allocas(*f)) > 0;
    }
    return changed;
  }

 private:
  static constexpr std::size_t kMaxElements = 128;
};

}  // namespace

bool run_mem2reg(Module& m) { return Mem2RegPass{}.run(m); }
bool run_scalarrepl(Module& m) { return ScalarReplPass{}.run(m); }
bool run_scalarrepl_ssa(Module& m) { return ScalarReplSSAPass{}.run(m); }
bool run_sroa(Module& m) { return SROAPass{}.run(m); }

}  // namespace autophase::passes
