#include "features/features.hpp"

namespace autophase::features {

namespace {

using ir::BasicBlock;
using ir::ConstantInt;
using ir::Instruction;
using ir::Opcode;

constexpr std::array<std::string_view, kNumFeatures> kFeatureNames = {
    "Number of BB where total args for phi nodes > 5",
    "Number of BB where total args for phi nodes is [1,5]",
    "Number of BB's with 1 predecessor",
    "Number of BB's with 1 predecessor and 1 successor",
    "Number of BB's with 1 predecessor and 2 successors",
    "Number of BB's with 1 successor",
    "Number of BB's with 2 predecessors",
    "Number of BB's with 2 predecessors and 1 successor",
    "Number of BB's with 2 predecessors and successors",
    "Number of BB's with 2 successors",
    "Number of BB's with >2 predecessors",
    "Number of BB's with Phi node # in range (0,3]",
    "Number of BB's with more than 3 Phi nodes",
    "Number of BB's with no Phi nodes",
    "Number of Phi-nodes at beginning of BB",
    "Number of branches",
    "Number of calls that return an int",
    "Number of critical edges",
    "Number of edges",
    "Number of occurrences of 32-bit integer constants",
    "Number of occurrences of 64-bit integer constants",
    "Number of occurrences of constant 0",
    "Number of occurrences of constant 1",
    "Number of unconditional branches",
    "Number of Binary operations with a constant operand",
    "Number of AShr insts",
    "Number of Add insts",
    "Number of Alloca insts",
    "Number of And insts",
    "Number of BB's with instructions between [15,500]",
    "Number of BB's with less than 15 instructions",
    "Number of BitCast insts",
    "Number of Br insts",
    "Number of Call insts",
    "Number of GetElementPtr insts",
    "Number of ICmp insts",
    "Number of LShr insts",
    "Number of Load insts",
    "Number of Mul insts",
    "Number of Or insts",
    "Number of PHI insts",
    "Number of Ret insts",
    "Number of SExt insts",
    "Number of Select insts",
    "Number of Shl insts",
    "Number of Store insts",
    "Number of Sub insts",
    "Number of Trunc insts",
    "Number of Xor insts",
    "Number of ZExt insts",
    "Number of basic blocks",
    "Number of instructions (of all types)",
    "Number of memory instructions",
    "Number of non-external functions",
    "Total arguments to Phi nodes",
    "Number of Unary operations",
};

/// Distinct predecessor count, capped at 3: the block-shape features only
/// distinguish 1 / 2 / more-than-2 predecessors, so the pointer dedup of
/// unique_predecessors() collapses to a fixed-size scan with no allocation.
std::size_t distinct_pred_count_capped(const BasicBlock* bb) noexcept {
  const auto& preds = bb->predecessors();
  const BasicBlock* seen[3] = {nullptr, nullptr, nullptr};
  std::size_t n = 0;
  for (const BasicBlock* p : preds) {
    bool dup = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (seen[j] == p) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    seen[n] = p;
    if (++n == 3) break;
  }
  return n;
}

/// More than one *distinct* predecessor (the receiving-end half of the
/// critical-edge test; the predecessor list carries multiplicity).
bool has_multiple_unique_preds(const BasicBlock* bb) noexcept {
  const auto& preds = bb->predecessors();
  for (std::size_t i = 1; i < preds.size(); ++i) {
    if (preds[i] != preds[0]) return true;
  }
  return false;
}

}  // namespace

std::string_view feature_name(int index) noexcept {
  return index >= 0 && index < kNumFeatures ? kFeatureNames[static_cast<std::size_t>(index)]
                                            : "?";
}

// Single pass over every instruction with no intermediate containers: the
// old extractor snapshotted blocks(), instructions(), successors() and
// unique_predecessors() per block (four heap vectors per block), which
// dominated observation time in profile. All counters are commutative sums,
// so folding the old second edge/critical-edge loop into the main walk
// produces bit-identical values.
FeatureVector extract_features(const ir::Module& module) {
  FeatureVector fv{};
  fv.fill(0);

  for (std::size_t fi = 0; fi < module.function_count(); ++fi) {
    // Read through the CoW source while the body is lazy: extracting
    // features from an unmutated rollout clone must not deep-copy it.
    const ir::Function* f = module.function(fi)->reading_body();
    ++fv[53];  // non-external functions (all of ours are defined)
    for (std::size_t bi = 0; bi < f->block_count(); ++bi) {
      const BasicBlock* bb = f->block(bi);
      ++fv[50];  // basic blocks
      const Instruction* term = bb->terminator();
      const std::size_t preds = distinct_pred_count_capped(bb);
      const std::size_t succs = term != nullptr ? term->successor_count() : 0;
      if (preds == 1) ++fv[2];
      if (preds == 1 && succs == 1) ++fv[3];
      if (preds == 1 && succs == 2) ++fv[4];
      if (succs == 1) ++fv[5];
      if (preds == 2) ++fv[6];
      if (preds == 2 && succs == 1) ++fv[7];
      if (preds == 2 && succs == 2) ++fv[8];
      if (succs == 2) ++fv[9];
      if (preds > 2) ++fv[10];

      std::int64_t phi_count = 0;
      std::int64_t phi_args = 0;
      const std::size_t inst_count = bb->size();
      if (inst_count < 15) {
        ++fv[30];
      } else if (inst_count <= 500) {
        ++fv[29];
      }

      for (std::size_t ii = 0; ii < bb->size(); ++ii) {
        const Instruction* inst = bb->inst(ii);
        ++fv[51];  // all instructions
        // Constant-operand occurrence features (19-22) count operand slots.
        for (const ir::Value* op : inst->operands()) {
          if (const ConstantInt* ci = ir::as_constant_int(op)) {
            if (ci->type()->bits() == 32) ++fv[19];
            if (ci->type()->bits() == 64) ++fv[20];
            if (ci->is_zero()) ++fv[21];
            if (ci->is_one()) ++fv[22];
          }
        }
        if (inst->is_binary() &&
            (ir::as_constant_int(inst->operand(0)) != nullptr ||
             ir::as_constant_int(inst->operand(1)) != nullptr)) {
          ++fv[24];
        }
        switch (inst->opcode()) {
          case Opcode::kPhi:
            ++phi_count;
            phi_args += static_cast<std::int64_t>(inst->incoming_count());
            break;
          case Opcode::kBr:
            ++fv[23];  // unconditional branches
            ++fv[32];  // Br insts
            break;
          case Opcode::kCondBr:
            ++fv[15];  // branches
            ++fv[32];
            break;
          case Opcode::kCall:
            ++fv[33];
            if (inst->type()->is_int()) ++fv[16];
            break;
          case Opcode::kAShr: ++fv[25]; break;
          case Opcode::kAdd: ++fv[26]; break;
          case Opcode::kAlloca: ++fv[27]; break;
          case Opcode::kAnd: ++fv[28]; break;
          case Opcode::kBitCast: ++fv[31]; break;
          case Opcode::kGep: ++fv[34]; break;
          case Opcode::kICmp: ++fv[35]; break;
          case Opcode::kLShr: ++fv[36]; break;
          case Opcode::kLoad: ++fv[37]; break;
          case Opcode::kMul: ++fv[38]; break;
          case Opcode::kOr: ++fv[39]; break;
          case Opcode::kRet: ++fv[41]; break;
          case Opcode::kSExt: ++fv[42]; break;
          case Opcode::kSelect: ++fv[43]; break;
          case Opcode::kShl: ++fv[44]; break;
          case Opcode::kStore: ++fv[45]; break;
          case Opcode::kSub: ++fv[46]; break;
          case Opcode::kTrunc: ++fv[47]; break;
          case Opcode::kXor: ++fv[48]; break;
          case Opcode::kZExt: ++fv[49]; break;
          default: break;
        }
        switch (inst->opcode()) {
          case Opcode::kAlloca:
          case Opcode::kLoad:
          case Opcode::kStore:
          case Opcode::kGep:
          case Opcode::kMemSet:
          case Opcode::kMemCpy: ++fv[52]; break;  // memory instructions
          default: break;
        }
        if (inst->is_cast()) ++fv[55];  // unary operations
      }

      if (phi_args > 5) ++fv[0];
      if (phi_args >= 1 && phi_args <= 5) ++fv[1];
      if (phi_count > 0 && phi_count <= 3) ++fv[11];
      if (phi_count > 3) ++fv[12];
      if (phi_count == 0) ++fv[13];
      fv[14] += phi_count;
      fv[40] += phi_count;
      fv[54] += phi_args;

      // Edge features, inline (terminator successor slots, duplicates
      // counted). A slot is a critical edge when its source branches more
      // than once and its target has more than one distinct predecessor —
      // the targets_to leg of ir::is_critical_edge holds trivially for a
      // live successor slot.
      if (term != nullptr) {
        const std::size_t n_succ = term->successor_count();
        fv[18] += static_cast<std::int64_t>(n_succ);
        if (n_succ >= 2) {
          for (std::size_t s = 0; s < n_succ; ++s) {
            if (has_multiple_unique_preds(term->successor(s))) ++fv[17];
          }
        }
      }
    }
  }
  return fv;
}

}  // namespace autophase::features
