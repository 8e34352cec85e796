// Entry points of every Table-1 pass: each transforms a module and returns
// whether it changed. Grouped by implementation file:
//   scalar.cpp     - SSA-value optimisations
//   cfg_passes.cpp - control-flow shaping / lowering / no-op legacy passes
//   mem.cpp        - memory-to-register promotion family
//   loops.cpp      - loop canonicalisation and transforms
//   ipo.cpp        - interprocedural passes
#pragma once

#include "ir/module.hpp"

namespace autophase::passes {

// scalar.cpp
bool run_instcombine(ir::Module& m);
bool run_reassociate(ir::Module& m);
bool run_early_cse(ir::Module& m);
bool run_gvn(ir::Module& m);
bool run_sccp(ir::Module& m);
bool run_adce(ir::Module& m);
bool run_dse(ir::Module& m);
bool run_sink(ir::Module& m);
bool run_correlated_propagation(ir::Module& m);
bool run_jump_threading(ir::Module& m);
bool run_codegenprepare(ir::Module& m);
bool run_memcpyopt(ir::Module& m);
bool run_tailcallelim(ir::Module& m);

// cfg_passes.cpp
bool run_simplifycfg(ir::Module& m);
bool run_break_crit_edges(ir::Module& m);
bool run_lowerswitch(ir::Module& m);
bool run_strip(ir::Module& m);  // -strip, -strip-nondebug
bool run_noop(ir::Module& m);   // -lowerinvoke, -loweratomic, -lower-expect

// mem.cpp
bool run_mem2reg(ir::Module& m);
bool run_sroa(ir::Module& m);
bool run_scalarrepl(ir::Module& m);
bool run_scalarrepl_ssa(ir::Module& m);

// loops.cpp
bool run_loop_simplify(ir::Module& m);
bool run_loop_rotate(ir::Module& m);
bool run_licm(ir::Module& m);
bool run_loop_unroll(ir::Module& m);
bool run_loop_deletion(ir::Module& m);
bool run_loop_idiom(ir::Module& m);
bool run_loop_reduce(ir::Module& m);
bool run_indvars(ir::Module& m);
bool run_loop_unswitch(ir::Module& m);
bool run_lcssa(ir::Module& m);

// ipo.cpp
bool run_inline(ir::Module& m);
bool run_partial_inliner(ir::Module& m);
bool run_globalopt(ir::Module& m);
bool run_globaldce(ir::Module& m);
bool run_deadargelim(ir::Module& m);
bool run_ipsccp(ir::Module& m);
bool run_functionattrs(ir::Module& m);
bool run_prune_eh(ir::Module& m);
bool run_constmerge(ir::Module& m);

}  // namespace autophase::passes
