// Fixed optimisation levels: -O0 (nothing) and -O3, a hand-ordered pipeline
// over the Table-1 passes modelled on LLVM's legacy -O3 schedule. The paper
// uses -O3 as the baseline every algorithm is measured against; the ~28%
// headroom AutoPhase finds comes from per-program orderings this fixed
// schedule cannot express (second unroll rounds, post-unroll ROM folding,
// address strength reduction, ...).
#pragma once

#include <vector>

#include "ir/module.hpp"

namespace autophase::passes {

/// Table-1 indices of the -O3 pipeline, in order.
const std::vector<int>& o3_sequence();

/// Applies -O3 in place.
void run_o3(ir::Module& module);

}  // namespace autophase::passes
