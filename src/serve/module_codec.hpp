// Binary serialization for ir::Module, the missing half of the serving wire
// protocol: PolicyArtifact blobs already cross processes, but a compile
// request carries a *program*, and the IR has a printer and no parser. The
// codec is canonical (serialize-of-deserialize is byte-identical) and
// structure-preserving — names, block order, and function attributes all
// round-trip — so print_module(decoded) == print_module(original) and the
// module fingerprint (the EvalService cache key) survives the network hop.
// Decoding is a trust boundary: every count, index, and operand type is
// validated, and the result is run through the IR verifier before release.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "ir/module.hpp"
#include "serve/serialization.hpp"
#include "support/status.hpp"

namespace autophase::serve {

/// Appends the module payload (no framing; compose inside larger messages).
void write_module(ByteWriter& w, const ir::Module& module);
/// Reads one module payload written by write_module.
Result<std::unique_ptr<ir::Module>> read_module(ByteReader& r);

/// Standalone blob framed like the artifact format: magic + format version +
/// length-prefixed payload + FNV-1a checksum.
std::string serialize_module(const ir::Module& module);
/// Appends the same blob to `w`.
void serialize_module(ByteWriter& w, const ir::Module& module);
Result<std::unique_ptr<ir::Module>> deserialize_module(std::string_view bytes);

}  // namespace autophase::serve
