// LegUp-style clock-cycle profiler (Huang et al., FCCM'13): combines the
// static schedule (FSM states per basic block) with software-trace dynamic
// block counts from the interpreter. 20x-faster-than-RTL-simulation stand-in
// from the paper, here implemented exactly as states x counts. Only the
// blocks the trace entered are scheduled: a block's states depend on nothing
// outside it, and a block that never ran adds nothing to the count.
#pragma once

#include <cstdint>

#include "hls/scheduler.hpp"
#include "interp/interpreter.hpp"
#include "support/status.hpp"

namespace autophase::hls {

struct CycleEstimate {
  std::uint64_t cycles = 0;
  /// Static cycles = sum over blocks of states*counts (FSM time).
  std::uint64_t fsm_cycles = 0;
  /// Dynamic extra cycles of variable-latency mem intrinsics (burst beats).
  std::uint64_t burst_cycles = 0;
  double area = 0.0;
};

/// cycles = Σ_bb states(bb)·count(bb) + Σ_memop ceil(elements/ports).
CycleEstimate estimate_cycles(const ModuleSchedule& schedule, const interp::Profile& profile,
                              const ResourceConstraints& rc);

/// End-to-end: interpret the module for the trace profile, schedule the
/// blocks it entered, and combine. This is the "HLS compile + cycle profile"
/// step of the AutoPhase loop. Fails if the program does not terminate within
/// the interpreter budget (the paper's CSmith filter rejects such programs
/// too).
Result<CycleEstimate> profile_cycles(const ir::Module& m, const ResourceConstraints& rc = {},
                                     interp::InterpreterOptions interp_options = {});

/// Cycle-accurate validation walk: re-runs the interpreter and accumulates
/// per-block states, from a schedule of the whole module, along the actual
/// trace. Equal to profile_cycles by construction on the same trace — used
/// as a plumbing consistency check (the paper validates the profiler against
/// full RTL simulation).
Result<std::uint64_t> simulate_fsm_cycles(const ir::Module& m, const ResourceConstraints& rc = {});

}  // namespace autophase::hls
