// Public facade of the AutoPhase framework (Fig. 4's block diagram):
// program in -> feature extractor + clock-cycle profiler -> deep-RL agent ->
// optimised pass sequence -> hardware RTL out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "rl/ppo.hpp"

namespace autophase::core {

struct AutoPhaseOptions {
  /// PPO budget for per-program tuning.
  rl::PpoConfig ppo{};
  /// Environment formulation (defaults to RL-PPO2: action-histogram
  /// observations, the most sample-efficient single-program setup).
  rl::EnvConfig env{};
  std::uint64_t seed = 1;
};

struct AutoPhaseResult {
  std::vector<int> best_sequence;       // Table-1 pass indices
  std::vector<std::string> pass_names;  // human-readable
  std::uint64_t o0_cycles = 0;
  std::uint64_t o3_cycles = 0;
  std::uint64_t best_cycles = 0;
  std::size_t samples = 0;  // simulator calls spent
  std::string rtl;          // Verilog for the optimised design
  /// Improvement over -O3, the paper's headline metric:
  /// (o3_cycles - best_cycles) / o3_cycles.
  [[nodiscard]] double improvement_over_o3() const noexcept {
    return o3_cycles == 0
               ? 0.0
               : (static_cast<double>(o3_cycles) - static_cast<double>(best_cycles)) /
                     static_cast<double>(o3_cycles);
  }
};

/// Trains a PPO agent on one program and returns the best phase ordering it
/// found, plus the RTL of the resulting design.
AutoPhaseResult optimize_program(const ir::Module& program, const AutoPhaseOptions& options = {});

/// -O0 / -O3 reference cycle counts for a program.
std::uint64_t o0_cycles(const ir::Module& program);
std::uint64_t o3_cycles(const ir::Module& program);

/// Cycles after applying an explicit sequence.
std::uint64_t cycles_with_sequence(const ir::Module& program, const std::vector<int>& sequence);

}  // namespace autophase::core
