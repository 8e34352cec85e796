// Resource-constrained list scheduler with operation chaining.
//
// Per basic block: instructions are scheduled in SSA order; combinational
// ops chain within one FSM state until the clock period is exhausted;
// multi-cycle ops (memory / multiplier / divider / call) are issued at cycle
// boundaries subject to unit availability. The number of FSM states a block
// needs is the quantity LegUp's profiler multiplies by dynamic block counts
// (Huang et al., FCCM'13) — that product is our cycle estimate. A block's
// states depend on nothing outside the block, so the profiler schedules only
// the blocks that ran (schedule_profile); schedule_module schedules them all,
// for RTL emission and for the reference walk in simulate_fsm_cycles.
//
// Blocks containing only phis + an unconditional branch cost 0 states (FSM
// transition folding), so edge-splitting helper blocks are free until real
// code lands in them.
#pragma once

#include <vector>

#include "hls/timing.hpp"
#include "interp/interpreter.hpp"
#include "ir/id_table.hpp"
#include "ir/module.hpp"

namespace autophase::hls {

struct FunctionSchedule {
  /// FSM states per execution of each block, by block id; 0 for a block the
  /// schedule does not cover.
  ir::IdTable<ir::BasicBlock, int> states;
  /// Sum of the covered blocks' states (static FSM size).
  int total_states = 0;
};

struct ModuleSchedule {
  /// Module order from schedule_module, profile order from schedule_profile.
  std::vector<FunctionSchedule> functions;

  [[nodiscard]] int states_of(const ir::BasicBlock* bb) const {
    for (const FunctionSchedule& f : functions) {
      if (const int states = f.states.find(bb); states != 0) return states;
    }
    return 0;
  }
};

FunctionSchedule schedule_function(const ir::Function& f, const ResourceConstraints& rc);
ModuleSchedule schedule_module(const ir::Module& m, const ResourceConstraints& rc = {});

/// Schedules only the blocks `profile` lists, which states_of() then answers
/// exactly as for schedule_module.
ModuleSchedule schedule_profile(const interp::Profile& profile, const ResourceConstraints& rc);

/// The cycle, within its block's states, at which each instruction of `f`
/// issues (-1 for phis, which resolve on the incoming edge). Only RTL
/// emission needs it.
ir::IdTable<ir::Instruction, int> issue_cycles(const ir::Function& f,
                                               const ResourceConstraints& rc);

/// Total datapath area estimate (sum of op areas + BRAM for allocas/globals).
double estimate_area(const ir::Module& m);

}  // namespace autophase::hls
