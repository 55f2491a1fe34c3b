/// \file simd.hpp
/// \brief Runtime SIMD dispatch of the bit-parallel simulation kernels.
///
/// Every bit-parallel simulator of the library works on one shape: a lane
/// group of `lane_group_words` consecutive 64-bit words, 512 assignments
/// per pass.  Every build compiles three kernel families for it: portable
/// unrolled `uint64` lanes (always available), AVX2 (two 256-bit words
/// per group) and AVX-512 (one 512-bit word per group), each vector family
/// in its own TUs built with its arch flag (`*_avx2.cpp`, `*_avx512.cpp`).
/// The dispatcher picks one at runtime via cpuid, so one binary runs
/// correctly on any x86-64.  The `QSYN_SIMD` environment variable
/// (`off`/`portable`, `avx2`, `avx512`/`native`) caps that choice; the
/// cross-backend tests (ctest's `test_*_simd_*` runs and the verdict gate
/// in scripts/run_bench.sh) use it to pin a backend.
///
/// This layer owns the dispatch and the two AIG kernels: the slot-program
/// walk (`run_slot_program`, aig_slots.hpp), which serves both truth-table
/// simulation (`aig_network::simulate_outputs`) and the verification spec
/// simulator (`wide_aig_simulator`), and `simd_and2_masked`.  The
/// reversible layer's gate-cascade kernel uses the same policies and the
/// same dispatch (reversible/wide_sim.hpp).

#pragma once

#include <cstddef>
#include <cstdint>

namespace qsyn
{

/// 64-bit words per lane group, the one pass shape of every bit-parallel
/// simulator: word k, bit j of a group is assignment `k * 64 + j` of the
/// pass.
inline constexpr unsigned lane_group_words = 8;

/// How a lane group's word operations execute.
enum class simd_backend
{
  portable, ///< unrolled `uint64` lanes, no ISA requirements
  avx2,     ///< two 256-bit `__m256i` words per group
  avx512,   ///< one 512-bit `__m512i` word per group
};

const char* simd_backend_name( simd_backend backend );

/// The backend the dispatcher selects: the widest one the CPU supports,
/// capped by the `QSYN_SIMD` environment variable.
simd_backend active_simd_backend();

/// dst[j] = (a[j] ^ invert_a) & (b[j] ^ invert_b) for j < num_words,
/// dispatched to the active backend.  The inner operation of the AIG
/// slot-program walk; exported for the incremental CEC engine's 64-way
/// window proofs, whose per-node pattern arrays use the same layout.
void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words );

} // namespace qsyn
