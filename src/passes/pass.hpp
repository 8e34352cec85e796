// The Table-1 registry.
//
// The paper's action space is exactly the 45 LLVM transform passes of
// Table 1, indexed 0..44, plus the pseudo-action 45 "-terminate" that ends
// an episode (45^45 > 2^247 orderings, as in the paper's intro). The
// registry reproduces that indexing, including the duplicated
// -functionattrs at indices 19 and 40. Its table is the only place a pass
// name is written: each entry pairs the name with the pass's entry point,
// a function that transforms a module and returns whether it changed.
#pragma once

#include <string_view>
#include <vector>

#include "ir/module.hpp"

namespace autophase::passes {

/// Number of real transform passes (action indices 0..44).
inline constexpr int kNumPasses = 45;
/// Pseudo-action ending an RL episode (Table 1 index 45).
inline constexpr int kTerminateAction = 45;
/// Total action count (passes + terminate).
inline constexpr int kNumActions = kNumPasses + 1;

class PassRegistry {
 public:
  static const PassRegistry& instance();

  /// Pass name for a Table-1 index (also defined for kTerminateAction).
  [[nodiscard]] std::string_view name(int index) const;
  /// Table-1 index for a pass name ("-gvn" or "gvn"); -1 if unknown.
  [[nodiscard]] int index_of(std::string_view name) const;
};

/// Runs pass `index` in [0, kNumActions); returns whether the module changed
/// (true exactly when the printed module differs). Index kTerminateAction is
/// a no-op returning false.
bool apply_pass(ir::Module& module, int index);

/// Applies a sequence of Table-1 indices in order.
bool apply_pass_sequence(ir::Module& module, const std::vector<int>& indices);

}  // namespace autophase::passes
