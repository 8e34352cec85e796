#include <cassert>
#include <iterator>

#include "passes/all_passes.hpp"
#include "passes/pass.hpp"

namespace autophase::passes {

namespace {

struct Entry {
  std::string_view name;
  bool (*run)(ir::Module&);
};

// Exact Table-1 indexing, including the duplicate -functionattrs at 19/40
// and the pseudo-action -terminate at 45.
constexpr Entry kTable[] = {
    {"-correlated-propagation", &run_correlated_propagation},  // 0
    {"-scalarrepl", &run_scalarrepl},                          // 1
    {"-lowerinvoke", &run_noop},                               // 2
    {"-strip", &run_strip},                                    // 3
    {"-strip-nondebug", &run_strip},                           // 4
    {"-sccp", &run_sccp},                                      // 5
    {"-globalopt", &run_globalopt},                            // 6
    {"-gvn", &run_gvn},                                        // 7
    {"-jump-threading", &run_jump_threading},                  // 8
    {"-globaldce", &run_globaldce},                            // 9
    {"-loop-unswitch", &run_loop_unswitch},                    // 10
    {"-scalarrepl-ssa", &run_scalarrepl_ssa},                  // 11
    {"-loop-reduce", &run_loop_reduce},                        // 12
    {"-break-crit-edges", &run_break_crit_edges},              // 13
    {"-loop-deletion", &run_loop_deletion},                    // 14
    {"-reassociate", &run_reassociate},                        // 15
    {"-lcssa", &run_lcssa},                                    // 16
    {"-codegenprepare", &run_codegenprepare},                  // 17
    {"-memcpyopt", &run_memcpyopt},                            // 18
    {"-functionattrs", &run_functionattrs},                    // 19
    {"-loop-idiom", &run_loop_idiom},                          // 20
    {"-lowerswitch", &run_lowerswitch},                        // 21
    {"-constmerge", &run_constmerge},                          // 22
    {"-loop-rotate", &run_loop_rotate},                        // 23
    {"-partial-inliner", &run_partial_inliner},                // 24
    {"-inline", &run_inline},                                  // 25
    {"-early-cse", &run_early_cse},                            // 26
    {"-indvars", &run_indvars},                                // 27
    {"-adce", &run_adce},                                      // 28
    {"-loop-simplify", &run_loop_simplify},                    // 29
    {"-instcombine", &run_instcombine},                        // 30
    {"-simplifycfg", &run_simplifycfg},                        // 31
    {"-dse", &run_dse},                                        // 32
    {"-loop-unroll", &run_loop_unroll},                        // 33
    {"-lower-expect", &run_noop},                              // 34
    {"-tailcallelim", &run_tailcallelim},                      // 35
    {"-licm", &run_licm},                                      // 36
    {"-sink", &run_sink},                                      // 37
    {"-mem2reg", &run_mem2reg},                                // 38
    {"-prune-eh", &run_prune_eh},                              // 39
    {"-functionattrs", &run_functionattrs},                    // 40 (Table-1 duplicate)
    {"-ipsccp", &run_ipsccp},                                  // 41
    {"-deadargelim", &run_deadargelim},                        // 42
    {"-sroa", &run_sroa},                                      // 43
    {"-loweratomic", &run_noop},                               // 44
    {"-terminate", nullptr},                                   // 45 (episode end)
};
static_assert(std::size(kTable) == static_cast<std::size_t>(kNumActions));

}  // namespace

const PassRegistry& PassRegistry::instance() {
  static const PassRegistry registry;
  return registry;
}

std::string_view PassRegistry::name(int index) const {
  assert(index >= 0 && index < kNumActions);
  return kTable[index].name;
}

int PassRegistry::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    const std::string_view n = kTable[i].name;
    if (n == name || (n.size() == name.size() + 1 && n.substr(1) == name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool apply_pass(ir::Module& module, int index) {
  assert(index >= 0 && index < kNumActions);
  if (index == kTerminateAction) return false;
  // Rollout clones arrive CoW-lazy; passes need complete use lists on
  // globals and arguments (globaldce, deadargelim, ipsccp), so the whole
  // module materialises before any pass runs. Nodes the pass creates go to
  // the module's arena when it has one.
  module.materialize_all();
  const support::ArenaScope scope(module.arena());
  return kTable[index].run(module);
}

bool apply_pass_sequence(ir::Module& module, const std::vector<int>& indices) {
  bool changed = false;
  for (const int idx : indices) changed |= apply_pass(module, idx);
  return changed;
}

}  // namespace autophase::passes
