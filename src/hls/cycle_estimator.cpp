#include "hls/cycle_estimator.hpp"

namespace autophase::hls {

CycleEstimate estimate_cycles(const ModuleSchedule& schedule, const interp::Profile& profile,
                              const ResourceConstraints& rc) {
  CycleEstimate est;
  for (const auto& [bb, count] : profile.block_counts) {
    est.fsm_cycles += static_cast<std::uint64_t>(schedule.states_of(bb)) * count;
  }
  const auto ports = static_cast<std::uint64_t>(rc.memory_ports);
  for (const auto& [inst, elems] : profile.mem_intrinsic_elems) {
    est.burst_cycles += (elems + ports - 1) / ports;
  }
  est.cycles = est.fsm_cycles + est.burst_cycles;
  return est;
}

Result<CycleEstimate> profile_cycles(const ir::Module& m, const ResourceConstraints& rc,
                                     interp::InterpreterOptions interp_options) {
  auto run = interp::run_module(m, interp_options);
  if (!run.is_ok()) return run.status();
  const interp::Profile& profile = run.value().profile;
  CycleEstimate est = estimate_cycles(schedule_profile(profile, rc), profile, rc);
  est.area = estimate_area(m);
  return est;
}

Result<std::uint64_t> simulate_fsm_cycles(const ir::Module& m, const ResourceConstraints& rc) {
  // The interpreter's trace *is* the FSM walk; accumulating states along it
  // equals states x counts. Kept as an independent code path over the
  // schedule table so tests can cross-check the estimator's bookkeeping.
  auto run = interp::run_module(m);
  if (!run.is_ok()) return run.status();
  const ModuleSchedule schedule = schedule_module(m, rc);
  std::uint64_t cycles = 0;
  for (const auto& [bb, count] : run.value().profile.block_counts) {
    for (std::uint64_t i = 0; i < count; ++i) {
      cycles += static_cast<std::uint64_t>(schedule.states_of(bb));
    }
  }
  const auto ports = static_cast<std::uint64_t>(rc.memory_ports);
  for (const auto& [inst, elems] : run.value().profile.mem_intrinsic_elems) {
    cycles += (elems + ports - 1) / ports;
  }
  return cycles;
}

}  // namespace autophase::hls
