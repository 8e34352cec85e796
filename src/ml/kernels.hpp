// Internal: the instruction-set variants behind matmul, matmul_tn and
// matmul_nt. The public kernels run the variant the host supports; tests
// call each one directly to check that they agree bit for bit.
#pragma once

#include "ml/matrix.hpp"

namespace autophase::ml::detail {

/// Instruction sets the kernels are compiled for. AVX2 exists only in
/// x86-64 GCC/Clang builds; every other build has the baseline alone.
enum class Isa { kBaseline, kAvx2 };

/// "baseline" or "avx2".
const char* isa_name(Isa isa) noexcept;
/// True when this build carries `isa`'s kernels and the host can run them.
bool isa_supported(Isa isa) noexcept;
/// The instruction set the public kernels run on this host.
Isa active_isa() noexcept;

/// The public kernels on one instruction set, which must be supported.
Matrix matmul(const Matrix& a, const Matrix& b, Isa isa);
Matrix matmul_tn(const Matrix& a, const Matrix& b, Isa isa);
Matrix matmul_nt(const Matrix& a, const Matrix& b, Isa isa);

}  // namespace autophase::ml::detail
