// Random HLS-program generator — the CSmith stand-in (§3.4 of the paper).
// Emits -O0-shaped IR modules with bounded loops (guaranteed termination),
// masked array accesses (guaranteed memory safety), helper functions, and a
// checksum-returning main, then filters out anything that fails the HLS
// flow or exceeds the execution budget, exactly as the paper filters CSmith
// output.
#pragma once

#include <cstdint>
#include <memory>

#include "ir/module.hpp"

namespace autophase::progen {

struct GeneratorConfig {
  std::uint64_t seed = 1;
};

/// Generates one random module (may be degenerate; prefer the filtered API).
std::unique_ptr<ir::Module> generate_random_program(const GeneratorConfig& config);

/// Generates a module that verifies and runs to completion within the
/// interpreter budget, retrying derived seeds as needed (mirrors the paper's
/// CSmith filter). Never returns null.
std::unique_ptr<ir::Module> generate_filtered_program(std::uint64_t seed);

}  // namespace autophase::progen
