// The 56 static program features of Table 2, with the paper's exact
// indices. Extracted module-wide (sum over all functions), exactly as the
// AutoPhase IR feature extractor does.
//
// Two definitions the paper leaves implicit are fixed here:
//  * #15 "Number of branches" counts conditional branches (condbr);
//    #32 "Number of Br insts" counts all branch instructions (br + condbr),
//    matching LLVM where both carry BranchInst opcode.
//  * #14 and #40 both equal the total phi count (all phis sit at block
//    heads in well-formed IR); the original extractor has the same aliasing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ir/module.hpp"

namespace autophase::features {

inline constexpr int kNumFeatures = 56;

using FeatureVector = std::array<std::int64_t, kNumFeatures>;

/// Feature name per Table 2 index.
std::string_view feature_name(int index) noexcept;

/// Extracts all 56 features from a module in a single allocation-free walk
/// (no per-block snapshot vectors, no per-feature re-walks). Reads lazy CoW
/// rollout clones through Function::reading_body(), so an unmutated clone
/// is extracted without materialising anything.
FeatureVector extract_features(const ir::Module& module);

}  // namespace autophase::features
