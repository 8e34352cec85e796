// IR interpreter. Plays two roles from the paper's toolchain:
//   1. the "software trace" profiler feeding LegUp-style cycle estimation
//      (the blocks that ran with their entry counts, and the elements each
//      variable-latency mem intrinsic processed);
//   2. the golden functional model for semantics-preservation property tests
//      (every Table-1 pass must preserve run().return_value and the global
//      memory checksum).
//
// For speed the module is compiled to a dense register-slot bytecode once at
// construction; executing costs tens of nanoseconds per dynamic instruction.
// The bytecode's blocks and mem intrinsics count their own entries and
// elements, so profiling a run does no lookup per dynamic block.
//
// Memory is one arena per thread, shared by every Interpreter run on that
// thread. It is calloc'd once (again only when `memory_bytes` changes), so a
// page is faulted in only when a run touches it, and it tracks the high-water
// mark of every write: the next run re-zeroes just that dirty prefix, even
// after a run that failed or threw. Each run therefore still sees all-zero
// memory apart from its globals, and bounds are still checked against
// `InterpreterOptions::memory_bytes`. A run holds its thread's arena until it
// returns, so run() must not be nested on one thread.
//
// Defined semantics (no UB, matching hardware which does not trap):
//   * integer overflow wraps (two's complement);
//   * division / remainder by zero yields 0;
//   * shift amounts are taken modulo the bit width;
//   * out-of-bounds memory access aborts execution with an error Status.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/module.hpp"
#include "support/status.hpp"

namespace autophase::interp {

/// Execution profile consumed by the HLS cycle estimator. Both lists are in
/// module order (functions, then blocks, then instructions), so a function's
/// blocks sit together. A lazy rollout clone's run lists the blocks and
/// instructions of the bodies it reads (Function::reading_body()).
struct Profile {
  /// Every block the run entered, with its dynamic entry count.
  std::vector<std::pair<const ir::BasicBlock*, std::uint64_t>> block_counts;
  /// Every memset/memcpy site that ran, with its total elements (variable latency).
  std::vector<std::pair<const ir::Instruction*, std::uint64_t>> mem_intrinsic_elems;
};

struct ExecutionResult {
  std::int64_t return_value = 0;
  std::uint64_t instructions_executed = 0;
  /// FNV-1a hash over the name + final contents of every global variable the
  /// execution actually wrote to. Restricting to dynamically-written globals
  /// makes the checksum a sound equivalence oracle: passes may delete
  /// never-referenced globals (-globaldce), but no correct pass can remove a
  /// global the program writes.
  std::uint64_t memory_checksum = 0;
  Profile profile;
};

struct InterpreterOptions {
  std::uint64_t max_instructions = 20'000'000;
  std::size_t max_call_depth = 2048;
  std::size_t memory_bytes = 1u << 22;  // 4 MiB arena; globals must fit in it
};

class Interpreter {
 public:
  /// Compiles `module` to bytecode. The module must stay alive and
  /// unmodified while this interpreter is used.
  explicit Interpreter(const ir::Module& module, InterpreterOptions options = {});
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Executes `main` (which by convention takes no arguments). Thread-safe
  /// for concurrent calls on distinct Interpreter instances only; runs on one
  /// thread must not nest (see the arena note above). Returns an error Status
  /// when the module's globals do not fit in `memory_bytes`.
  Result<ExecutionResult> run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience: compile + run.
Result<ExecutionResult> run_module(const ir::Module& module, InterpreterOptions options = {});

}  // namespace autophase::interp
