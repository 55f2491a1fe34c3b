/// \file verify.hpp
/// \brief Verification of synthesized reversible circuits against their
/// irreversible specification (our analogue of the paper's use of ABC `cec`).
///
/// Three tiers are provided, trading confidence against cost:
///   * **sampled** — 64 random input assignments per simulated word
///     (probabilistic; silently exhaustive when 2^inputs fits the budget),
///   * **exhaustive** — all 2^inputs assignments, 64 per word (a proof for
///     bounded input counts),
///   * **SAT** — a proof at any width.  Designs with at most
///     `sat_tier_max_enumerated_pis` inputs are proven by the exhaustive
///     tier; wider ones have the circuit's function extracted into an AIG
///     and checked against the specification by the incremental
///     equivalence engine (`qsyn::sat::incremental_cec`: shared structural
///     hashing, per-output miters under assumptions, simulation-guided
///     fraiging), reusable across a sweep's configurations.
/// The simulation tiers share one engine (wide_sim.hpp): a lane group of
/// 8 `std::uint64_t` words per circuit line packs 512 input assignments,
/// and every gate sweeps whole groups — the Toffoli control conjunction is
/// a group AND, the target update a group XOR — so one pass over the gate
/// list settles 512 assignments at once (AVX-512 or AVX2 words when the
/// CPU has them, portable unrolled lanes otherwise).  Smaller input spaces
/// fill part of one group and mask the rest; every report is bit-identical
/// to the scalar `evaluate_circuit` by contract.
///
/// Conventions: input variable i lives on the i-th line flagged
/// `is_primary_input` (in line order); constant ancillae carry
/// `is_constant_input` / `constant_value`; output j is read from the line
/// with `output_index == j`.  Bit j of a packed word is assignment j of the
/// batch.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "../common/budget.hpp"
#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"
#include "circuit.hpp"
#include "wide_sim.hpp"

namespace qsyn
{

namespace sat
{
class incremental_cec;
struct check_limits;
} // namespace sat

/// Lines flagged as primary inputs, in order.
std::vector<std::uint32_t> input_lines_of( const reversible_circuit& circuit );
/// Line holding each output (indexed by output).  Throws
/// std::invalid_argument unless the output indices are exactly 0..k-1,
/// each on one line.
std::vector<std::uint32_t> output_lines_of( const reversible_circuit& circuit );

/// Simulates the circuit on one input assignment (constants filled in) and
/// returns the output values.  This is the scalar reference evaluator; the
/// verifiers below run on the wide engine and are cross-checked against
/// this one, lane by lane, in tests/test_verify.cpp.
std::vector<bool> evaluate_circuit( const reversible_circuit& circuit,
                                    const std::vector<bool>& inputs );

/// Exhaustively checks the circuit against output truth tables, one lane
/// group of 512 assignments per pass (inputs <= 24).
bool verify_against_truth_tables( const reversible_circuit& circuit,
                                  const std::vector<truth_table>& outputs );

/// Exhaustively checks the circuit against an AIG over all 2^inputs
/// assignments (inputs <= 24), one lane group per pass, in counter order.
/// Returns the first failing input assignment if any — a proof of
/// equivalence when it returns nullopt.
std::optional<std::vector<bool>> verify_against_aig_exhaustive( const reversible_circuit& circuit,
                                                                const aig_network& aig );

/// Checks the circuit against an AIG on `num_samples` random input
/// assignments (plus the all-zero and all-one patterns), one lane group per
/// pass.  When 2^num_pis <= num_samples the check delegates to
/// `verify_against_aig_exhaustive` — same budget, full coverage, and a
/// real proof for small designs.  Returns the first failing input if any.
std::optional<std::vector<bool>> verify_against_aig_sampled( const reversible_circuit& circuit,
                                                             const aig_network& aig,
                                                             unsigned num_samples = 256,
                                                             std::uint64_t seed = 1 );

/// Coverage-accounted result of a budgeted simulation tier.  When the
/// deadline expires mid-run the verdict is *partial*: `complete` is false
/// and `assignments_completed < assignments_requested` says exactly how
/// much of the input space was covered before the cutoff — never silently
/// reported as full coverage.  A present `counterexample` is always real,
/// partial coverage or not.
struct partial_verify_report
{
  std::optional<std::vector<bool>> counterexample;
  std::uint64_t assignments_requested = 0;
  std::uint64_t assignments_completed = 0;
  bool complete = true;
};

/// `verify_against_aig_exhaustive` with a cooperative deadline, polled once
/// before the simulators are built and once per lane-group pass.  With an
/// unlimited deadline the result is identical to the unbudgeted tier, and
/// `assignments_completed` counts single assignments in counter order up
/// to and including the first counterexample.
partial_verify_report verify_against_aig_exhaustive_budgeted( const reversible_circuit& circuit,
                                                              const aig_network& aig,
                                                              const deadline& stop );

/// `verify_against_aig_sampled` with a cooperative deadline, polled once
/// before the simulators are built and once per lane-group pass (the
/// small-design exhaustive delegation applies unchanged).  With an
/// unlimited deadline the result is identical to the unbudgeted tier.  The
/// rng stream is consumed as one word per input per 64-lane block, in
/// block order, and `assignments_completed` counts single assignments, so
/// a request of `num_samples + 2` that is not lane-aligned is never
/// rounded up.
partial_verify_report verify_against_aig_sampled_budgeted( const reversible_circuit& circuit,
                                                           const aig_network& aig,
                                                           const deadline& stop,
                                                           unsigned num_samples = 256,
                                                           std::uint64_t seed = 1 );

/// Extracts the function computed by the circuit as an AIG: one PI per
/// primary-input line (in input order), one PO per output index.  Constant
/// ancillae become AIG constants; each Toffoli gate contributes the AND of
/// its (polarity-adjusted) control literals XORed onto its target.
aig_network circuit_to_aig( const reversible_circuit& circuit );

/// Widest design the SAT tier proves by enumeration instead of the engine.
/// Up to 2^16 assignments the wide exhaustive tier is far cheaper than
/// extracting, encoding and solving a miter, and it leaves no structure
/// behind in a long-lived engine (measurements in docs/ARCHITECTURE.md).
inline constexpr unsigned sat_tier_max_enumerated_pis = 16;

/// Outcome of a budgeted SAT-tier check.  `resolved == false` means the
/// limits ran out before a verdict; `equivalent` is then meaningless and
/// the caller should degrade to a simulation tier.
struct sat_verify_outcome
{
  bool resolved = true;
  bool equivalent = false;
  std::optional<std::vector<bool>> counterexample;
};

/// The SAT tier under explicit limits.  Designs with at most
/// `sat_tier_max_enumerated_pis` inputs run
/// `verify_against_aig_exhaustive_budgeted` under `limits.stop` (resolved
/// when it completes or finds a counterexample, which is then the first
/// failing assignment in counter order) and never touch `engine`.  Wider
/// designs are extracted with `circuit_to_aig` and checked by `engine`
/// under the deadline and the conflict / propagation budgets (an already
/// expired deadline returns unresolved before the extraction); its
/// counterexample distinguishes circuit and spec at the lowest-indexed
/// differing output, is solver-dependent, and always real.  Successive
/// checks on one engine share the spec encoding, fraig merges and learned
/// lemmas; the engine serializes concurrent calls internally.  Throws
/// std::invalid_argument on an interface mismatch.
sat_verify_outcome verify_against_aig_sat_budgeted( const reversible_circuit& circuit,
                                                    const aig_network& aig,
                                                    sat::incremental_cec& engine,
                                                    const sat::check_limits& limits );

/// One-shot, unlimited SAT tier on a private engine.  Returns a
/// counterexample, or nullopt as a proof of equivalence.
std::optional<std::vector<bool>> verify_against_aig_sat( const reversible_circuit& circuit,
                                                         const aig_network& aig );

/// Returns a copy of the circuit with one gate retargeted such that the
/// realized function provably differs from `spec` (confirmed by exhaustive
/// enumeration; gates are scanned from the back, a retarget onto a control
/// line is never attempted).  The negative-path fixture shared by the
/// verification tests and `bench_verify` — a "flip one gate target"
/// corruption can be semantically benign when both targets are garbage, so
/// every candidate is checked before it is returned.  Throws if no single
/// retarget changes the function.
reversible_circuit corrupt_circuit( const reversible_circuit& circuit, const aig_network& spec );

} // namespace qsyn
