/// \file simd.hpp
/// \brief Runtime SIMD dispatch of the bit-parallel simulation kernels.
///
/// Every build compiles three kernel families: portable unrolled `uint64`
/// lanes (always available), AVX2 256-bit words and AVX-512 512-bit words,
/// each vector family in its own TUs built with its arch flag
/// (`*_avx2.cpp`, `*_avx512.cpp`).  The dispatcher picks one at runtime
/// via cpuid, so one binary runs correctly on any x86-64.  The `QSYN_SIMD`
/// environment variable (`off`/`portable`, `avx2`, `avx512`/`native`) caps
/// that choice; the cross-backend tests (ctest's `test_*_simd_*` runs and
/// the verdict gate in scripts/run_bench.sh) use it to pin a backend.
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

/// How a lane group's word operations execute.
enum class simd_backend
{
  portable, ///< unrolled `uint64` lanes, no ISA requirements
  avx2,     ///< 256-bit `__m256i` words (one per 4-word group, two per 8-word group)
  avx512,   ///< 512-bit `__m512i` words (one per 8-word group)
};

const char* simd_backend_name( simd_backend backend );

/// The backend the dispatcher selects for lane groups of `words` 64-bit
/// words (1, 4 or 8): the widest backend the CPU supports whose word size
/// divides the group, capped by the `QSYN_SIMD` environment variable.  A
/// one-word group always runs portable — a single 64-bit word has nothing
/// to vectorize.
simd_backend active_simd_backend( unsigned words );

/// dst[j] = (a[j] ^ invert_a) & (b[j] ^ invert_b) for j < num_words,
/// dispatched to the widest available backend.  The inner operation of the
/// AIG slot-program walk; exported for the incremental CEC engine's 64-way
/// window proofs, whose per-node pattern arrays use the same layout.
void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words );

} // namespace qsyn
