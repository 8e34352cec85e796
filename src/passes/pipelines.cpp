#include "passes/pipelines.hpp"

#include <cassert>

#include "passes/pass.hpp"

namespace autophase::passes {

namespace {

std::vector<int> names_to_indices(const std::vector<const char*>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const char* n : names) {
    const int idx = PassRegistry::instance().index_of(n);
    assert(idx >= 0);
    out.push_back(idx);
  }
  return out;
}

}  // namespace

const std::vector<int>& o3_sequence() {
  static const std::vector<int> seq = names_to_indices({
      // Canonicalisation / cleanup.
      "-mem2reg",
      "-simplifycfg",
      "-sroa",
      "-early-cse",
      "-instcombine",
      "-simplifycfg",
      // Interprocedural round.
      "-ipsccp",
      "-globalopt",
      "-deadargelim",
      "-inline",
      "-functionattrs",
      "-prune-eh",
      // Scalar round.
      "-sroa",
      "-early-cse",
      "-jump-threading",
      "-correlated-propagation",
      "-simplifycfg",
      "-instcombine",
      "-tailcallelim",
      "-reassociate",
      // Loop round.
      "-loop-simplify",
      "-lcssa",
      "-loop-rotate",
      "-licm",
      "-loop-unswitch",
      "-simplifycfg",
      "-instcombine",
      "-loop-simplify",
      "-lcssa",
      "-indvars",
      "-loop-idiom",
      "-loop-deletion",
      "-loop-unroll",
      // Post-loop scalar round.
      "-gvn",
      "-memcpyopt",
      "-sccp",
      "-instcombine",
      "-jump-threading",
      "-correlated-propagation",
      "-dse",
      "-adce",
      "-simplifycfg",
      "-instcombine",
      // Late IPO cleanup.
      "-globaldce",
      "-constmerge",
  });
  return seq;
}

void run_o3(ir::Module& module) { apply_pass_sequence(module, o3_sequence()); }

}  // namespace autophase::passes
