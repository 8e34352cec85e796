// Textual IR printing. Deterministic: value labels derive from per-function
// slot numbers (optionally combined with user names), so the printed form is
// stable and usable as a cache fingerprint for module evaluation.
#pragma once

#include <cstdint>
#include <string>

#include "ir/module.hpp"

namespace autophase::ir {

std::string print_module(const Module& module);

/// FNV-1a of print_module's bytes — the canonical module fingerprint used by
/// the evaluation cache. The printer streams the bytes straight into the
/// hash, so the text is never built; both functions share one printer body.
/// Like print_module, it reads through CoW rollout bodies, so fingerprinting
/// an unmutated lazy clone never forces a deep copy.
std::uint64_t module_fingerprint(const Module& module);

/// Instruction + basic-block count across every function, reading through
/// CoW rollout bodies like the printer does (an unmutated lazy clone is
/// sized without forcing a deep copy). This is the `ir_size` objective of
/// multi-objective serving: the same walk the fingerprint makes, minus the
/// text. Allocates nothing.
std::uint64_t module_ir_size(const Module& module);

}  // namespace autophase::ir
