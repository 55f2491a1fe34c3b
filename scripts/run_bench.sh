#!/usr/bin/env bash
# Builds Release, runs the ESOP, DSE and verification benchmarks, and
# compares the freshly emitted BENCH_*.json files against the committed
# baselines at the repo root.  Fails when
#   * any ESOP case regresses its final term count by more than 10%,
#   * the DSE engine's cached sweep regresses: its cached-vs-sequential
#     speedup ratio or its absolute wall clock drops more than 25%
#     (machine-dependent band: the cached half is a sub-second wall
#     clock, and losing the memoization collapses the ratio to ~1x), or
#     its costs diverge from the sequential path,
#   * the task-graph batch sweep regresses: no two tasks of a multi-worker
#     sweep ever overlapped in time (max_concurrent <= 1, the
#     dead-parallelism canary: a scheduler that silently serialized would
#     still produce identical results),
#   * the persistent artifact store regresses: the warm pass of the batch
#     sweep against a freshly re-opened store recomputes any stage artifact
#     (it must be all store hits, zero misses) or its costs diverge from the
#     cold pass, or the daemon's repeat query is not answered from cache at
#     least 10x faster than the first synthesis, or a restarted daemon
#     instance on the same store root fails to answer from disk, or N
#     identical in-flight daemon queries fail to coalesce into exactly one
#     synthesis with bit-identical answers (coalesced_ok, schema v5),
#   * the verification tiers diverge (scalar vs wide vs SAT accept/reject),
#     a corrupted circuit slips through, or the wide-vs-scalar speedup
#     drops more than 25% against the committed baseline,
#   * the SIMD-wide engine's exhaustive reports on the mixed pass/fail
#     candidates differ from the scalar enumeration's in verdict,
#     counterexample or coverage accounting (reports_agree),
#   * the cpuid-chosen backend (the QSYN_SIMD environment variable unset)
#     and the portable kernels (QSYN_SIMD=portable) disagree on any
#     verdict, counterexample bit string, or report identity in two
#     --sim-only runs of the one bench_verify binary,
#   * the SAT tier regresses: aggregate SAT-tier wall clock
#     (or the SAT-tier-vs-monolithic speedup, measured in the same run)
#     more than 15% worse than the committed baseline, or the NEWTON(8)
#     hierarchical miter below its 10x floor,
#   * `table3_esop --max-n 18` (Table III up to n = 18, ~3 s) does not
#     finish within 60 seconds: the ESOP front half has regressed
#     exponentially,
#   * `table4_hierarchical --max-n 32` (Table IV up to n = 32, ~2 s) does
#     not finish within 30 seconds, or any of its qubit or T-count columns
#     differs from the committed values: the synthesis front end (optimize,
#     LUT mapping, XMG resynthesis) must keep producing the same artifacts
#     at Table IV scale,
#   * docs/ARCHITECTURE.md is missing, no longer mentions every src/*
#     subdirectory, or names a src/<name>/ that does not exist.
# Finally reruns the verification + store + LUT-map + synth + SAT + AIG +
# XMG + daemon + robustness + flows + Verilog test suites under
# AddressSanitizer (QSYN_SANITIZE=address) — the wide engine is all raw
# word indexing, the store and the daemon decode untrusted on-disk bytes,
# the cut and ISOP kernels index fixed-capacity arrays, the strash tables
# of the AIG, the XMG and the SAT engine read node fanins by probed id,
# the robustness and flows suites drive the SAT tier's dispatch and
# degradation ladder, and the Verilog parser and elaborator read source
# text from outside the program — the same plus the robustness +
# scheduler suites under UndefinedBehaviorSanitizer, and the robustness + scheduler + daemon +
# flows + store + synth + AIG suites under ThreadSanitizer (the daemon
# coalesces concurrent requests on per-key slots over a shared pool, the
# artifact cache's per-key slots are locked from many threads, and refactor
# planning and output simulation run on parallel_chunks threads).  Every build compiles the
# AVX2 and AVX-512 kernels; the ASan block runs test_verify and test_aig once per
# kernel family (QSYN_SIMD unset, avx2, portable), so the vector kernels
# themselves run instrumented, not just the portable fallback.
#
# Every benchmark invocation runs inside a hard `timeout` ceiling
# (BENCH_TIMEOUT seconds, default 1200): a hung benchmark is exactly the
# failure mode the budget machinery guards against, so it must fail this
# gate with a diagnostic instead of wedging the run.
#
# Usage: scripts/run_bench.sh [--quick]
#   --quick   run the reduced workload sets (faster; compares only the
#             cases present in both files)

set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)
BUILD_DIR="$REPO_ROOT/build-bench"

QUICK_ARGS=()
if [[ "${1:-}" == "--quick" ]]; then
  QUICK_ARGS+=(--quick)
fi

BENCH_TIMEOUT="${BENCH_TIMEOUT:-1200}"
run_bench() {
  local label="$1"
  shift
  local status=0
  timeout --kill-after=30 "$BENCH_TIMEOUT" "$@" || status=$?
  if [[ $status -eq 124 || $status -eq 137 ]]; then
    echo "BENCH TIMEOUT: $label did not finish within the ${BENCH_TIMEOUT}s hard ceiling" \
         "(command: $*)" >&2
    exit 1
  elif [[ $status -ne 0 ]]; then
    echo "BENCH FAILED: $label exited with status $status (command: $*)" >&2
    exit 1
  fi
}

# Every build compiles all SIMD backends; runtime cpuid dispatch picks one
# and keeps the binary correct on any x86-64.
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_esop bench_dse bench_verify table3_esop table4_hierarchical

# --- ESOP term-count gate ----------------------------------------------------

BASELINE="$REPO_ROOT/BENCH_esop.json"
FRESH="$BUILD_DIR/BENCH_esop.json"
run_bench bench_esop "$BUILD_DIR/bench/bench_esop" --out "$FRESH" "${QUICK_ARGS[@]}"

if [[ ! -f "$BASELINE" ]]; then
  echo "No committed baseline at $BASELINE; copy $FRESH there to create one."
  exit 1
fi

python3 - "$BASELINE" "$FRESH" <<'EOF'
import json
import sys

TERM_REGRESSION_LIMIT = 0.10

with open(sys.argv[1]) as f:
    baseline = {c["name"]: c for c in json.load(f)["cases"]}
with open(sys.argv[2]) as f:
    fresh = {c["name"]: c for c in json.load(f)["cases"]}

failures = []
for name, base in sorted(baseline.items()):
    new = fresh.get(name)
    if new is None:
        continue  # quick runs omit the larger cases
    if new.get("verified") is False:
        failures.append(f"{name}: minimized ESOP no longer matches the input function")
    limit = base["terms_final"] * (1.0 + TERM_REGRESSION_LIMIT)
    if new["terms_final"] > limit:
        failures.append(
            f"{name}: terms_final {new['terms_final']} vs baseline "
            f"{base['terms_final']} (> {TERM_REGRESSION_LIMIT:.0%} regression)"
        )
    speed = ""
    if new.get("exorcism_ms") and base.get("exorcism_ms"):
        speed = f"  exorcism {base['exorcism_ms']:.2f} -> {new['exorcism_ms']:.2f} ms"
    print(f"{name}: terms {base['terms_final']} -> {new['terms_final']}{speed}")

if failures:
    print("\nBENCHMARK REGRESSIONS:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nesop benchmark OK (term counts within {:.0%} of baseline)".format(TERM_REGRESSION_LIMIT))
EOF

# --- ESOP front-half scaling gate --------------------------------------------
# Table III up to n = 18 takes ~3 s (4-vCPU Xeon, Release).  A front half
# that again held a 2^n-bit table per AIG node or per PSDKRO subfunction
# needs minutes and gigabytes at n = 18, so the ceiling turns such an
# exponential regression into a gate failure instead of a slow benchmark.
BENCH_TIMEOUT=60 run_bench table3_esop \
  "$BUILD_DIR/bench/table3_esop" --max-n 18 >/dev/null
echo "table3_esop --max-n 18 OK (within the 60 s ceiling)"

# --- Table IV front-end gate -------------------------------------------------
# Table IV up to n = 32 takes ~2 s (4-vCPU Xeon, Release), almost all of it
# optimize, lut_map and xmg_from_luts.  Its qubit and T-count columns are a
# fingerprint of those stages' artifacts: a front-end change must leave
# them unchanged or lower them (and re-record them here), and one that
# blows up at Table IV scale hits the ceiling.
TABLE4_OUT="$BUILD_DIR/table4_hierarchical.txt"
BENCH_TIMEOUT=30 run_bench table4_hierarchical \
  "$BUILD_DIR/bench/table4_hierarchical" --max-n 32 >"$TABLE4_OUT"
python3 - "$TABLE4_OUT" <<'EOF'
import sys

# n -> (INTDIV qubits, INTDIV T-count, NEWTON qubits, NEWTON T-count)
EXPECTED = {
    8: (210, 1407, 4931, 29239),
    16: (807, 5530, 26156, 157647),
    32: (3154, 21847, 130469, 795872),
}

rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        cells = [c.split() for c in line.split("|")]
        if len(cells) == 3 and cells[0] and cells[0][0].isdigit():
            rows[int(cells[0][0])] = (int(cells[1][0]), int(cells[1][1]),
                                      int(cells[2][0]), int(cells[2][1]))

failures = []
for n, expected in sorted(EXPECTED.items()):
    got = rows.get(n)
    if got != expected:
        failures.append(f"n = {n}: INTDIV/NEWTON qubits, T-count {got} vs committed {expected}")
if failures:
    print("TABLE IV FRONT-END REGRESSIONS:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("table4_hierarchical --max-n 32 OK (within the 30 s ceiling, qubits and T-counts unchanged)")
EOF

# --- DSE wall-clock gate -----------------------------------------------------

DSE_BASELINE="$REPO_ROOT/BENCH_dse.json"
DSE_FRESH="$BUILD_DIR/BENCH_dse.json"
# --threads 1: the gate measures the caching engine; thread-count
# differences between machines must not mask (or fake) a regression.
run_bench bench_dse "$BUILD_DIR/bench/bench_dse" --threads 1 --out "$DSE_FRESH" "${QUICK_ARGS[@]}"

if [[ ! -f "$DSE_BASELINE" ]]; then
  echo "No committed baseline at $DSE_BASELINE; copy $DSE_FRESH there to create one."
  exit 1
fi

python3 - "$DSE_BASELINE" "$DSE_FRESH" <<'EOF'
import json
import sys

# Both the cached-vs-sequential speedup ratio and the absolute cached wall
# clock get a 25% band: the cached half is a sub-second wall clock whose
# run-to-run jitter on shared containers moves even the ratio by ~12%.
WALL_ABS_REGRESSION_LIMIT = 0.25

with open(sys.argv[1]) as f:
    baseline = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

failures = []
if not fresh.get("all_identical", False):
    failures.append("cached sweep costs diverged from the sequential path")
if fresh.get("verify", False) and not fresh.get("all_verified", False):
    failures.append("a swept configuration failed verification")

# --- task-graph batch-sweep gates (schema v3, v6) ----------------------------
sweep = fresh.get("sweep", {})
if not sweep:
    failures.append("fresh run has no batch-sweep section (schema < 3?)")
else:
    # Dead-parallelism canary: on a multi-worker pool some of the batch
    # graph's tasks MUST overlap in time (max_concurrent is the peak
    # overlap of measured task start/end intervals); a scheduler that
    # silently serialized would still produce identical results but never
    # exceed 1.
    if sweep.get("threads", 0) > 1 and sweep.get("max_concurrent", 2) <= 1:
        failures.append(
            "no task overlap on a {}-worker batch sweep (max_concurrent "
            "{}): the scheduler silently serialized".format(
                sweep.get("threads"), sweep.get("max_concurrent")
            )
        )
    print(
        "sweep: task-graph {:.3f} s on {} threads, "
        "{} tasks / {} coalesced / {} peak concurrent, "
        "critical path {:.3f} s".format(
            sweep.get("task_graph_wall_s", 0.0),
            sweep.get("threads", 0),
            sweep.get("tasks_run", 0),
            sweep.get("coalesced", 0),
            sweep.get("max_concurrent", 0),
            sweep.get("critical_path_s", 0.0),
        )
    )

# --- persistent-store gates (schema v4) --------------------------------------
DAEMON_SPEEDUP_FLOOR = 10.0

store_sweep = fresh.get("store_sweep", {})
if not store_sweep:
    failures.append("fresh run has no store_sweep section (schema < 4?)")
else:
    print(
        "store sweep: cold {:.3f} s ({} misses) -> warm {:.3f} s "
        "({} misses, {} store hits)".format(
            store_sweep.get("cold_wall_s", 0.0),
            store_sweep.get("cold_misses", 0),
            store_sweep.get("warm_wall_s", 0.0),
            store_sweep.get("warm_misses", 0),
            store_sweep.get("warm_store_hits", 0),
        )
    )
    if not store_sweep.get("identical", False):
        failures.append("warm store sweep costs diverged from the cold pass")
    if not store_sweep.get("recompute_free", False):
        failures.append(
            "warm store sweep recomputed stage artifacts ({} misses, {} store "
            "hits vs {} cold misses): the disk tier is not serving".format(
                store_sweep.get("warm_misses", -1),
                store_sweep.get("warm_store_hits", -1),
                store_sweep.get("cold_misses", -1),
            )
        )

daemon = fresh.get("daemon", {})
if not daemon:
    failures.append("fresh run has no daemon section (schema < 4?)")
else:
    print(
        "daemon: first {:.6f} s -> repeat {:.6f} s ({:.0f}x)".format(
            daemon.get("first_s", 0.0),
            daemon.get("repeat_s", 0.0),
            daemon.get("speedup", 0.0),
        )
    )
    if not daemon.get("repeat_from_cache", False):
        failures.append("daemon repeat query was not served from the result cache")
    if not daemon.get("restart_from_cache", False):
        failures.append(
            "restarted daemon instance did not answer the repeat query from the store"
        )
    if daemon.get("speedup", 0.0) < DAEMON_SPEEDUP_FLOOR:
        failures.append(
            "daemon repeat query only {:.1f}x faster than the first synthesis "
            "(< {:.0f}x floor)".format(
                daemon.get("speedup", 0.0), DAEMON_SPEEDUP_FLOOR
            )
        )
    # Cross-request coalescing gate (schema v5): N identical in-flight
    # queries against a fresh daemon must run exactly one synthesis, and
    # every client must get the same payload.
    if "concurrent_clients" not in daemon:
        failures.append("fresh run has no concurrent-clients daemon case (schema < 5?)")
    else:
        print(
            "daemon: {} concurrent identical clients -> {} synthesis in "
            "{:.6f} s".format(
                daemon.get("concurrent_clients", 0),
                daemon.get("concurrent_synthesized", -1),
                daemon.get("concurrent_wall_s", 0.0),
            )
        )
        if daemon.get("concurrent_synthesized", -1) != 1:
            failures.append(
                "{} identical in-flight daemon queries ran {} syntheses "
                "(must coalesce into exactly 1)".format(
                    daemon.get("concurrent_clients", 0),
                    daemon.get("concurrent_synthesized", -1),
                )
            )
        if not daemon.get("coalesced_ok", False):
            failures.append(
                "concurrent daemon clients disagreed on the answer or got errors"
            )

base_cases = {c["name"]: c for c in baseline["cases"]}
fresh_cases = {c["name"]: c for c in fresh["cases"]}
base_total = 0.0
fresh_total = 0.0
base_seq = 0.0
fresh_seq = 0.0
for name, base in sorted(base_cases.items()):
    new = fresh_cases.get(name)
    if new is None:
        continue  # quick runs omit the larger cases
    base_total += base["cached_wall_s"]
    fresh_total += new["cached_wall_s"]
    base_seq += base["seq_wall_s"]
    fresh_seq += new["seq_wall_s"]
    print(
        f"{name}: cached {base['cached_wall_s']:.3f} -> {new['cached_wall_s']:.3f} s"
        f"  (speedup vs sequential {new['speedup']:.2f}x)"
    )

# Primary gate: cached-vs-sequential speedup, both halves measured in
# the same fresh run.  Losing the memoization collapses this ratio from
# ~4x to ~1x; the cached half is a sub-second wall clock, so run-to-run
# scheduler jitter moves the ratio by ~12% on identical binaries
# (3.7-4.2x measured) — it gets the wide machine-dependent band, which
# still sits far above the ~1x failure mode.
base_speedup = (base_seq / base_total) if base_total > 0 else 0.0
fresh_speedup = (fresh_seq / fresh_total) if fresh_total > 0 else 0.0
if base_speedup > 0 and fresh_speedup < base_speedup * (1.0 - WALL_ABS_REGRESSION_LIMIT):
    failures.append(
        f"cached-vs-sequential speedup {fresh_speedup:.2f}x vs baseline "
        f"{base_speedup:.2f}x (> {WALL_ABS_REGRESSION_LIMIT:.0%} regression)"
    )

# Secondary, machine-dependent gate: absolute cached wall clock.  Only
# meaningful against a baseline recorded on the same machine — re-baseline
# BENCH_dse.json there (see README) if this fires on different hardware.
if base_total > 0 and fresh_total > base_total * (1.0 + WALL_ABS_REGRESSION_LIMIT):
    failures.append(
        f"cached sweep wall clock {fresh_total:.3f} s vs baseline {base_total:.3f} s "
        f"(> {WALL_ABS_REGRESSION_LIMIT:.0%} regression; machine-dependent — "
        f"re-baseline if hardware changed)"
    )

if failures:
    print("\nBENCHMARK REGRESSIONS:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(
    "\ndse benchmark OK (cached wall {:.3f} s vs baseline {:.3f} s, within {:.0%})".format(
        fresh_total, base_total, WALL_ABS_REGRESSION_LIMIT
    )
)
EOF

# --- verification-engine gate ------------------------------------------------

VERIFY_BASELINE="$REPO_ROOT/BENCH_verify.json"
VERIFY_FRESH="$BUILD_DIR/BENCH_verify.json"
run_bench bench_verify "$BUILD_DIR/bench/bench_verify" --out "$VERIFY_FRESH" "${QUICK_ARGS[@]}"

if [[ ! -f "$VERIFY_BASELINE" ]]; then
  echo "No committed baseline at $VERIFY_BASELINE; copy $VERIFY_FRESH there to create one."
  exit 1
fi

python3 - "$VERIFY_BASELINE" "$VERIFY_FRESH" <<'EOF'
import json
import sys

# Wall-clock ratios swing ~20% run-to-run on shared containers (the gate
# runs right after a parallel build), so the regression band is wide; the
# machine-independent hard criterion is the 20x per-case floor — losing
# the bit-parallelism would show up as a ~60x drop, far outside both.
SPEEDUP_REGRESSION_LIMIT = 0.25
SPEEDUP_FLOOR = 20.0  # every case must keep a >= 20x wide-vs-scalar win

SAT_REGRESSION_LIMIT = 0.15       # SAT-tier-vs-monolithic speedup band
SAT_WALL_REGRESSION_LIMIT = 0.25  # absolute SAT wall clock: same run-to-run
                                  # noise allowance as the wide gate
SAT_NEWTON8_FLOOR = 10.0          # SAT-tier-vs-monolithic on the flagship case

with open(sys.argv[1]) as f:
    baseline = {c["name"]: c for c in json.load(f)["cases"]}
with open(sys.argv[2]) as f:
    fresh_doc = json.load(f)
fresh = {c["name"]: c for c in fresh_doc["cases"]}

failures = []
if not fresh_doc.get("all_agree", False):
    failures.append("verification tiers diverged or a corrupted circuit slipped through")
if fresh_doc.get("schema_version", 0) < 5:
    failures.append(
        "fresh BENCH_verify.json has schema_version "
        f"{fresh_doc.get('schema_version', 0)} (< 5): no wide-vs-scalar metrics"
    )
if not fresh_doc.get("reports_agree", False):
    failures.append(
        "the wide engine's exhaustive reports diverged from the scalar "
        "enumeration's verdicts or counterexamples on the mixed pass/fail candidates"
    )

base_scalar = base_wide = fresh_scalar = fresh_wide = 0.0
base_sat = base_mono = fresh_sat = fresh_mono = 0.0
for name, base in sorted(baseline.items()):
    new = fresh.get(name)
    if new is None:
        continue  # quick runs omit the larger cases
    if not new.get("tiers_agree", False):
        failures.append(f"{name}: scalar/wide/SAT accept-reject divergence")
    if not new.get("corrupt_rejected", False):
        failures.append(f"{name}: corrupted circuit not rejected by every tier")
    if new["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"{name}: wide-vs-scalar speedup {new['speedup']:.1f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x floor"
        )
    if name == "newton-n8-hier" and new.get("sat_speedup", 0.0) < SAT_NEWTON8_FLOOR:
        failures.append(
            f"{name}: SAT-tier-vs-monolithic speedup "
            f"{new.get('sat_speedup', 0.0):.1f}x below the {SAT_NEWTON8_FLOOR:.0f}x floor"
        )
    if not new.get("reports_agree", False):
        failures.append(f"{name}: wide-engine reports diverged from the scalar enumeration's")
    base_scalar += base["scalar_ms"]
    base_wide += base["wide_ms"]
    fresh_scalar += new["scalar_ms"]
    fresh_wide += new["wide_ms"]
    base_sat += base.get("sat_ms", 0.0)
    base_mono += base.get("sat_mono_ms", 0.0)
    fresh_sat += new.get("sat_ms", 0.0)
    fresh_mono += new.get("sat_mono_ms", 0.0)
    print(
        f"{name}: wide {base['wide_ms']:.4f} -> {new['wide_ms']:.4f} ms"
        f"  (speedup {new['speedup']:.1f}x vs baseline {base['speedup']:.1f}x)"
        f"  sat {base.get('sat_ms', 0.0):.2f} -> {new.get('sat_ms', 0.0):.2f} ms"
        f" ({new.get('sat_speedup', 0.0):.1f}x vs mono)"
    )

# Machine-independent gate on the AGGREGATE speedup (both halves measured
# in the same fresh run): per-case sub-millisecond wide timings are too
# noisy to gate individually at 10%, the aggregate is dominated by the
# larger, stabler cases.
base_speedup = (base_scalar / base_wide) if base_wide > 0 else 0.0
fresh_speedup = (fresh_scalar / fresh_wide) if fresh_wide > 0 else 0.0
if base_speedup > 0 and fresh_speedup < base_speedup * (1.0 - SPEEDUP_REGRESSION_LIMIT):
    failures.append(
        f"aggregate wide-vs-scalar speedup {fresh_speedup:.1f}x vs baseline "
        f"{base_speedup:.1f}x (> {SPEEDUP_REGRESSION_LIMIT:.0%} regression)"
    )

# SAT-tier gates.  Machine-independent primary: the aggregate
# SAT-tier-vs-monolithic speedup, both timed in the same fresh
# run.  Machine-dependent secondary: absolute aggregate SAT wall clock vs
# the committed baseline (re-baseline on hardware changes, see README).
base_sat_speedup = (base_mono / base_sat) if base_sat > 0 else 0.0
fresh_sat_speedup = (fresh_mono / fresh_sat) if fresh_sat > 0 else 0.0
if base_sat_speedup > 0 and fresh_sat_speedup < base_sat_speedup * (1.0 - SAT_REGRESSION_LIMIT):
    failures.append(
        f"aggregate SAT-tier-vs-monolithic speedup {fresh_sat_speedup:.1f}x vs "
        f"baseline {base_sat_speedup:.1f}x (> {SAT_REGRESSION_LIMIT:.0%} regression)"
    )
if base_sat > 0 and fresh_sat > base_sat * (1.0 + SAT_WALL_REGRESSION_LIMIT):
    failures.append(
        f"aggregate SAT-tier wall clock {fresh_sat:.2f} ms vs baseline {base_sat:.2f} ms "
        f"(> {SAT_WALL_REGRESSION_LIMIT:.0%} regression; machine-dependent — "
        f"re-baseline if hardware changed)"
    )

if failures:
    print("\nBENCHMARK REGRESSIONS:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(
    "\nverify benchmark OK (aggregate speedup {:.1f}x vs baseline {:.1f}x, "
    "SAT tier {:.1f}x vs mono on {} backend; tiers and reports agree)".format(
        fresh_speedup,
        base_speedup,
        fresh_sat_speedup,
        fresh_doc.get("simd_backend", "?"),
    )
)
EOF

# --- cross-backend verdict identity: cpuid choice vs portable ----------------
# The bench_verify binary run with the backend cpuid picks (QSYN_SIMD unset)
# and pinned to the portable kernels (QSYN_SIMD=portable) must produce
# bit-identical verdicts, counterexample bit strings and report
# identity.  Both sides run --sim-only (SAT timings carry no SIMD and would
# double the wall clock).

NATIVE_SIM_JSON="$BUILD_DIR/BENCH_verify_simonly.json"
PORTABLE_SIM_JSON="$BUILD_DIR/BENCH_verify_simonly_portable.json"
run_bench bench_verify_native_simonly \
  env -u QSYN_SIMD "$BUILD_DIR/bench/bench_verify" --sim-only --out "$NATIVE_SIM_JSON" \
  "${QUICK_ARGS[@]}"
run_bench bench_verify_portable_simonly \
  env QSYN_SIMD=portable "$BUILD_DIR/bench/bench_verify" --sim-only --out "$PORTABLE_SIM_JSON" \
  "${QUICK_ARGS[@]}"

python3 - "$NATIVE_SIM_JSON" "$PORTABLE_SIM_JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    native_doc = json.load(f)
with open(sys.argv[2]) as f:
    portable_doc = json.load(f)

failures = []
if portable_doc.get("simd_backend") != "portable":
    failures.append(
        "the QSYN_SIMD=portable run dispatched to "
        f"'{portable_doc.get('simd_backend')}' — the environment cap does not pin the backend"
    )

# The per-case fields a backend could corrupt: the verdict of every tier on
# the good and corrupted circuit, the corrupted circuit's counterexample
# bit string, and the report-vs-scalar identity sweep.
VERDICT_FIELDS = ("tiers_agree", "corrupt_rejected", "reports_agree", "cex")

native = {c["name"]: c for c in native_doc["cases"]}
portable = {c["name"]: c for c in portable_doc["cases"]}
if set(native) != set(portable):
    failures.append(
        f"case sets differ: native {sorted(native)} vs portable {sorted(portable)}"
    )
for name in sorted(set(native) & set(portable)):
    for field in VERDICT_FIELDS:
        nv, pv = native[name].get(field), portable[name].get(field)
        if nv != pv:
            failures.append(
                f"{name}: {field} differs between backends (native {nv!r} "
                f"[{native_doc.get('simd_backend')}] vs portable {pv!r})"
            )

if failures:
    print("CROSS-BACKEND VERDICT MISMATCH:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(
    "cross-backend verdicts OK ({} cases bit-identical: native [{}] vs portable)".format(
        len(native), native_doc.get("simd_backend", "?")
    )
)
EOF

# --- documentation check -----------------------------------------------------
# docs/ARCHITECTURE.md is the layer map of the whole system; every source
# subdirectory must exist in it, and every src/<name>/ it names must exist
# in the tree, so the map cannot silently rot in either direction.

ARCH_DOC="$REPO_ROOT/docs/ARCHITECTURE.md"
if [[ ! -f "$ARCH_DOC" ]]; then
  echo "DOCS CHECK FAILED: $ARCH_DOC is missing"
  exit 1
fi
DOC_FAILURES=0
for dir in "$REPO_ROOT"/src/*/; do
  name=$(basename "$dir")
  if ! grep -q "src/$name" "$ARCH_DOC"; then
    echo "DOCS CHECK FAILED: src/$name is not mentioned in docs/ARCHITECTURE.md"
    DOC_FAILURES=1
  fi
done
for name in $(grep -o 'src/[A-Za-z0-9_]*/' "$ARCH_DOC" | cut -d/ -f2 | sort -u); do
  if [[ ! -d "$REPO_ROOT/src/$name" ]]; then
    echo "DOCS CHECK FAILED: docs/ARCHITECTURE.md names src/$name/, which does not exist"
    DOC_FAILURES=1
  fi
done
if [[ "$DOC_FAILURES" -ne 0 ]]; then
  exit 1
fi
echo "docs check OK (docs/ARCHITECTURE.md and the src/* subdirectories match)"

# --- verification tests under AddressSanitizer -------------------------------
# The wide engine is raw uint64_t indexing over packed state words; run the
# suite instrumented on every bench invocation, once per kernel family: the
# cpuid choice (AVX-512 on an AVX-512 machine), AVX2's paired registers,
# and the portable unrolled lanes.
# Lane-group loads/stores are the exact place an off-by-one-word bug would
# live.

ASAN_DIR="$REPO_ROOT/build-asan-verify"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release -DQSYN_SANITIZE=address
cmake --build "$ASAN_DIR" -j "$(nproc)" \
  --target test_verify test_store test_lut_xmg test_synth test_sat test_aig test_xmg test_daemon \
  test_robustness test_flows test_reversible test_rsynth test_verilog
env -u QSYN_SIMD "$ASAN_DIR/tests/test_verify"
QSYN_SIMD=avx2 "$ASAN_DIR/tests/test_verify"
QSYN_SIMD=portable "$ASAN_DIR/tests/test_verify"
# The artifact store is raw byte-level (de)serialization of attacker-ish
# input (any on-disk file), and its suite fuzzes those decoders and the
# request parser with seeded mutants: run it instrumented too.
"$ASAN_DIR/tests/test_store"
# The cut and ISOP kernels index fixed-capacity leaf arrays and word
# tables: an off-by-one there is an out-of-bounds access.
"$ASAN_DIR/tests/test_lut_xmg"
"$ASAN_DIR/tests/test_synth"
# The flat strash table probes with mask arithmetic over a power-of-two
# slot array and confirms each probed id by reading that node's fanins in
# the AIG, the XMG and the SAT engine, which also indexes solver literals
# and signature words by node id: out-of-bounds accesses waiting to happen.
"$ASAN_DIR/tests/test_sat"
# simulate_outputs runs the dispatched slot kernel over 8-word lane
# groups: run the AIG suite once per kernel family, like test_verify.
env -u QSYN_SIMD "$ASAN_DIR/tests/test_aig"
QSYN_SIMD=avx2 "$ASAN_DIR/tests/test_aig"
QSYN_SIMD=portable "$ASAN_DIR/tests/test_aig"
"$ASAN_DIR/tests/test_xmg"
# The daemon hands cache slots across request threads and decodes cached
# outcomes from on-disk bytes.
"$ASAN_DIR/tests/test_daemon"
# The SAT tier's dispatch (enumeration up to 16 inputs, the engine above),
# the verify-tier degradation ladder and the parser's nesting limit.
"$ASAN_DIR/tests/test_robustness"
# The end-to-end verify path: the spec simulator reuses value slots as
# soon as a node's last reader is done (a wrong free list reads a
# neighbour's value), and output lines come from checked output indices.
"$ASAN_DIR/tests/test_flows"
# A circuit's gates are one flat array indexed through per-gate control
# offsets, and the gate kernel reads those arrays and the packed controls
# in place: an off-by-one offset reads a neighbour gate's controls.
"$ASAN_DIR/tests/test_reversible"
"$ASAN_DIR/tests/test_rsynth"
# The Verilog lexer, parser and elaborator read source text from outside
# the program: widths, ranges and repeat counts come straight from it.
"$ASAN_DIR/tests/test_verilog"
echo
echo "test_verify (3 backends) + test_store + test_lut_xmg + test_synth + test_sat + test_aig (3 backends) + test_xmg +" \
     "test_daemon + test_robustness + test_flows + test_reversible + test_rsynth + test_verilog OK under" \
     "AddressSanitizer"

# --- robustness + scheduler tests under UBSan and TSan -----------------------
# The budget/cancellation/fault-injection paths are counter arithmetic,
# atomics and cross-thread exception plumbing, and the task-graph scheduler
# adds a shared job queue on top: run both suites instrumented
# for undefined behaviour and for data races on every bench invocation.

UBSAN_DIR="$REPO_ROOT/build-ubsan-robustness"
cmake -B "$UBSAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release -DQSYN_SANITIZE=undefined
cmake --build "$UBSAN_DIR" -j "$(nproc)" \
  --target test_robustness test_scheduler test_store test_verify test_lut_xmg test_synth \
  test_sat test_aig test_xmg test_daemon test_reversible test_rsynth test_verilog
"$UBSAN_DIR/tests/test_robustness"
"$UBSAN_DIR/tests/test_scheduler"
# The store headers round-trip enums and fixed-width counters from
# untrusted bytes: run the suite under UBSan as well.
"$UBSAN_DIR/tests/test_store"
# The wide kernels build polarity masks with shifts and ~0 arithmetic on
# 64-bit words: run the verification suite (including every differential
# wide-vs-scalar property) under UBSan with the cpuid-chosen kernels too.
"$UBSAN_DIR/tests/test_verify"
# The cut and ISOP kernels build variable masks and moves with shifts on
# 64-bit words, where a shift by 64 would hide.
"$UBSAN_DIR/tests/test_lut_xmg"
"$UBSAN_DIR/tests/test_synth"
# Strash probing and key packing, and the SAT engine's literal packing,
# are shift-and-mask arithmetic on 32- and 64-bit words.
"$UBSAN_DIR/tests/test_sat"
"$UBSAN_DIR/tests/test_aig"
"$UBSAN_DIR/tests/test_xmg"
# Outcome decoding turns on-disk bytes back into enums and counters.
"$UBSAN_DIR/tests/test_daemon"
# Control offsets are 32-bit sums over the flat gate array, and a control
# packs its line and polarity into bit-fields of one word.
"$UBSAN_DIR/tests/test_reversible"
"$UBSAN_DIR/tests/test_rsynth"
# Widths, ranges, repeat counts and constant expressions are unsigned and
# 64-bit arithmetic on numbers read from the source text.
"$UBSAN_DIR/tests/test_verilog"
echo
echo "test_robustness + test_scheduler + test_store + test_verify + test_lut_xmg +" \
     "test_synth + test_sat + test_aig + test_xmg + test_daemon + test_reversible + test_rsynth +" \
     "test_verilog OK under UndefinedBehaviorSanitizer"

TSAN_DIR="$REPO_ROOT/build-tsan-robustness"
cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release -DQSYN_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" --target test_robustness test_scheduler test_daemon \
  test_flows test_store test_synth test_aig
"$TSAN_DIR/tests/test_robustness"
# The scheduler suite under TSan runs at the pool widths the ctest fixtures
# pin: queue races only exist with >= 2 workers.
QSYN_THREADS=2 "$TSAN_DIR/tests/test_scheduler"
"$TSAN_DIR/tests/test_scheduler"
# The daemon coalesces concurrent identical requests into one synthesis on
# per-key slots over a shared task-graph pool and upgrades cached results
# across budget classes: its suite exercises those interleavings with real client
# threads, so it runs instrumented for data races too.
"$TSAN_DIR/tests/test_daemon"
# The artifact cache locks one slot per key: its suite races first requests
# of one key, and a memory hit against another key's computation.
"$TSAN_DIR/tests/test_flows"
# The store tier of the same slots: loads, saves and budget upgrades,
# including store-backed sweeps on several threads.
"$TSAN_DIR/tests/test_store"
# Refactor planning and the lane groups of simulate_outputs run on
# parallel_chunks threads that share the source network and write disjoint
# chunk results and table words.
"$TSAN_DIR/tests/test_synth"
"$TSAN_DIR/tests/test_aig"
echo
echo "test_robustness + test_scheduler + test_daemon + test_flows + test_store + test_synth +" \
     "test_aig OK under ThreadSanitizer"
