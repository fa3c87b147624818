#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — the
# workspace has no external dependencies.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check (workspace and workload-bench)"
# Formatting is checked, not applied: an unformatted file fails the gate,
# so `cargo fmt --all` before a change rewrites only the lines it touches.
# The benchmark is its own workspace, which `--all` does not reach.
cargo fmt --all --check
cargo fmt --manifest-path workload-bench/Cargo.toml --all --check

echo "==> cargo build --release (workspace, all targets)"
cargo build --release --workspace --all-targets

echo "==> cargo test -q (workspace, VPEC_AUDIT=full)"
# Debug tests default to full auditing anyway; pinning it here keeps the
# gate meaningful even when the caller exported VPEC_AUDIT=off.
# Hard timeouts: a hung watchdog/cancellation test must fail the gate,
# not wedge CI forever. The engine tests park threads on purpose; a
# deadlock there looks exactly like "still running" without this.
timeout 1200 env VPEC_AUDIT=full cargo test -q --workspace

echo "==> release-profile audit pass (tier-1 integration tests, VPEC_AUDIT=full)"
# Release builds default to audits OFF; this run covers the enforcement
# paths in the exact profile users deploy, including the sparse-vs-dense
# agreement and the typed error of a singular system.
timeout 600 env VPEC_AUDIT=full cargo test -q --release --test audit_invariants --test paper_claims \
  --test sparse_factor --test fault_tolerance
# The netlist census behind the one sparse factor per system: 22,000
# seeded random netlists, each as its DC, transient and AC system; every
# system the sparse factor rejects but dense LU factors must have a dense
# kappa_1 of at least 1/eps, and at least one such system must appear.
timeout 600 env VPEC_AUDIT=full cargo test -q --release -p vpec-circuit --lib solver::census
# The AC sweep in the optimized build: its sparse factors (one ordering
# per sweep) agree with dense LU within 1e-9 of max|x| at every point and
# equal, bit for bit, a sweep that assembles and orders each point afresh.
timeout 600 env VPEC_AUDIT=full cargo test -q --release -p vpec-circuit --lib ac::
# Window-local extraction in the optimized build: gwVPEC(8) at 8,192
# bits never builds the dense L and reads at most 16 entries of it per
# filament, and local windows equal the dense-sort windows bit for bit.
timeout 600 cargo test -q --release --test window_locality --test window_identity
# The step loop (trapezoidal, the one integrator): a coupled inductor's
# carried flux history stays within 1e-12 of the direct product over
# 3,000 steps (and is formed afresh when a retry halves the step), and
# the 256-bit PEEC and full-VPEC factors sweep their dense trailing
# blocks bit-identically to walking the indices. The same factors
# (transient and DC) and the 28 x 8 bus's full-VPEC AC factor equal,
# entry for entry, a factorization that scatters every update through
# row indices.
timeout 600 cargo test -q --release --test step_loop
# The VPEC stamp (one branch current and one vector potential per
# filament) in the optimized build: full VPEC matches PEEC within 1e-12
# of the victim's peak on the 256-bit and Table III buses, the exported
# Fig. 1 deck parsed back simulates within 1e-6 of the stamp, the DC
# point and a 28 x 8 AC sweep equal PEEC's, and the stamp's kappa_1 is
# at least 1e6 below the deck's. The waveform digests pin every probed
# sample of the reduced-size paper workloads bit for bit.
timeout 600 cargo test -q --release --test vpec_stamp --test waveform_digests
# The sparse factor's block kernel in the optimized build: on bordered
# systems (trailing cliques of 2, 40 and 200 columns, off-diagonal
# pivots, exact ties, an exact-zero U entry, an aborted threshold attempt
# and a block that turns singular), real and complex, its pivots and L
# and U entries equal the row-indexed update's bit for bit.
timeout 600 cargo test -q --release -p vpec-numerics --lib sparse_lu::
# The sparse and dense kernels' property tests (seeded, with forced exact
# cancellations in the sparse LU) in the optimized build users deploy.
timeout 600 cargo test -q --release -p vpec-numerics --test proptests
# The SPD inverse in the optimized build: every entry of A⁻¹ is one dot
# product of two columns of G⁻¹, so the inverse is exactly symmetric,
# identical at 1, 2 and 8 workers and within n·eps·kappa_1 of the column
# solves; and gtVPEC and localized VPEC, which form only their kept
# entries straight from the factor, equal `retain` of the full model on
# a misaligned 2-segment bus, pair for pair and bit for bit.
timeout 600 cargo test -q --release -p vpec-numerics --test par_equivalence
timeout 600 cargo test -q --release -p vpec-core --lib truncation::

echo "==> workload benchmark tests (every workload's oracles at toy size)"
# The benchmark is a package of its own (workload-bench/Cargo.toml), so
# the workspace test run above does not reach it.
timeout 600 cargo test -q --release --manifest-path workload-bench/Cargo.toml

echo "==> telemetry line budget (crates/trace + crates/metrics, at most 3,100 lines)"
# ROADMAP item 8 adds per-layer and accuracy evidence to the ledger
# within this budget (DESIGN.md §10.3), so telemetry code that nothing
# reads has to go before more comes in.
telemetry_lines=$(cat crates/trace/src/*.rs crates/metrics/src/*.rs | wc -l)
echo "telemetry crates: $telemetry_lines lines"
[ "$telemetry_lines" -le 3100 ] \
  || { echo "crates/trace + crates/metrics exceed the 3,100-line budget" >&2; exit 1; }

echo "==> cargo clippy (workspace, all targets, -D warnings)"
# Besides clippy's defaults this enforces the project rules (DESIGN.md
# §14): unsafe-audit (`unsafe_code = "forbid"` in the root Cargo.toml's
# [workspace.lints], inherited by every member and by tests/ and
# examples/), panic-freedom (the deny(clippy::unwrap_used, …) attribute in
# the eight engine-boundary lib roots), nan-ordering and numerical-class
# (clippy.toml's disallowed-methods: `partial_cmp` and the reassociating
# `dot4`), and waiver hygiene (`#[allow]` is denied; every exception is an
# `#[expect(lint, reason = …)]`, and one that suppresses nothing fails as
# unfulfilled). env-var-registry and the workspace-lint inheritance are
# checked by tests/workspace_policy.rs in the test step above.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (workload-bench: unsafe-audit and nan-ordering)"
# The benchmark is its own workspace and is not edited alongside the
# library, so it does not inherit [workspace.lints]: forbid unsafe code
# on the command line. The root clippy.toml reaches it, but its
# `Category` derives `PartialOrd`, which the disallowed `partial_cmp`
# fires inside; the grep keeps explicit `partial_cmp` calls out instead.
# (`set -e` ignores a failing `! cmd`, hence the explicit exit.)
cargo clippy --manifest-path workload-bench/Cargo.toml --all-targets -- \
  -D warnings -F unsafe_code -A clippy::disallowed_methods
if grep -rnw partial_cmp workload-bench/src; then
  echo "workload-bench: NaN-unsafe partial_cmp (use total_cmp)" >&2
  exit 1
fi

echo "==> cargo doc (workspace, -D warnings)"
# Neither the build nor clippy resolves intra-doc links: a doc that links
# a deleted, renamed, private or ambiguous item only fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> batch engine smoke run (vpec batch, request isolation + degradation + ledger)"
batch_in="target/batch_smoke_in.jsonl"
batch_out="target/batch_smoke_out.jsonl"
batch_err="target/batch_smoke_err.txt"
batch_ledger="target/batch_smoke_ledger.jsonl"
batch_prom="target/batch_smoke.prom"
# Seven-request mix: two healthy (same geometry — the second must be a
# cache hit), one over-budget full-inversion request (must degrade to
# wVPEC), one fault-injected panic (must consume one retry and fail with
# a typed error), one healthy windowed request, one AC sweep, and one
# transient with a NaN injected at step 3. Faults bypass the engine's
# caches, so that last request runs the cold transient path, whose
# dt-halving retry must recover it (ok, degraded by the solve). The batch
# as a whole must exit 0 and leave one schema-valid ledger record per
# request and a metrics exposition behind.
cat > "$batch_in" <<'EOF'
{"id":"ok-1","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"ok-2","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"over-budget","bits":8,"kind":"vpec-full","t_stop":5e-11}
{"id":"boom","bits":3,"kind":"wvpec-g:2","t_stop":5e-11,"faults":{"panic_engine":true}}
{"id":"ok-3","bits":4,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"ac-1","bits":3,"kind":"wvpec-g:2","analysis":"ac","points_per_decade":2}
{"id":"nan-1","bits":3,"kind":"wvpec-g:2","t_stop":5e-11,"faults":{"poison_step":3}}
EOF
# With -o the summary goes to stdout (stderr carries the injected panic's
# backtrace); capture both so the summary assertion below sees it.
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  batch --in "$batch_in" --max-dim 6 --retries 1 --backoff-ms 1 --degrade-window 2 \
  --ledger "$batch_ledger" --metrics-out "$batch_prom" -o "$batch_out" > "$batch_err" 2>&1
grep "^batch:" "$batch_err" || true
[ "$(wc -l < "$batch_out")" -eq 7 ] || { echo "batch smoke: expected 7 response lines" >&2; exit 1; }
# Every line is valid JSON with the response schema (python-free grep
# checks).
while IFS= read -r line; do
  case "$line" in
    '{"id":"'*'","status":"'*) ;;
    *) echo "batch smoke: malformed response line: $line" >&2; exit 1 ;;
  esac
done < "$batch_out"
grep -q '"id":"ok-1","status":"ok"' "$batch_out" || { echo "batch smoke: ok-1 must succeed" >&2; exit 1; }
grep -q '"id":"ok-2","status":"ok".*"cache_hit":true' "$batch_out" \
  || { echo "batch smoke: ok-2 must be a cache hit" >&2; exit 1; }
grep -q '"id":"over-budget","status":"ok".*"degraded":true.*"degraded_reason":"budget"' "$batch_out" \
  || { echo "batch smoke: over-budget must degrade to wVPEC" >&2; exit 1; }
grep -q '"id":"boom","status":"failed".*"category":"panic"' "$batch_out" \
  || { echo "batch smoke: boom must fail with a typed panic error" >&2; exit 1; }
grep -q '"id":"ok-3","status":"ok"' "$batch_out" || { echo "batch smoke: ok-3 must succeed" >&2; exit 1; }
grep -q '"id":"ac-1","status":"ok"' "$batch_out" || { echo "batch smoke: ac-1 must succeed" >&2; exit 1; }
grep -q '"id":"nan-1","status":"ok".*"degraded":true.*"transient recovery: 1 retry' "$batch_out" \
  || { echo "batch smoke: nan-1 must recover by one dt-halving retry" >&2; exit 1; }
# The summary must count the retry the panic consumed (the engine's
# retries; nan-1's recovery is a step retry inside one attempt).
grep -q '1 retries' "$batch_err" || { echo "batch smoke: summary must report 1 retry" >&2; exit 1; }
# One run-ledger record per request, contiguous seq (vpec stats validates
# the schema before aggregating — a dropped or reordered line fails it).
[ "$(wc -l < "$batch_ledger")" -eq 7 ] || { echo "batch smoke: expected 7 ledger records" >&2; exit 1; }
# The exposition counts every request once, in the request counter and in
# the latency histogram, and counts the cache hit, all tallied from the
# run records with tracing off.
for line in '^vpec_engine_requests_total 7$' '^vpec_engine_request_total_ms_count 7$' \
            '^vpec_engine_cache_hit_total '; do
  grep -q "$line" "$batch_prom" || { echo "batch smoke: exposition lacks $line" >&2; exit 1; }
done
# Every series is one of the engine's request metrics: no library
# counter reaches the exposition.
if grep -v '^# ' "$batch_prom" | grep -v '^vpec_engine_'; then
  echo "batch smoke: exposition holds a series outside vpec_engine_" >&2
  exit 1
fi

echo "==> fleet stats smoke run (vpec stats over the batch ledger, --fail-if gates)"
stats_json="target/batch_smoke_stats.json"
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  stats "$batch_ledger" --format json > "$stats_json"
# The known batch composition must survive the ledger round trip.
for key in '"total":7' '"ok":6' '"failed":1' '"degraded":2' '"retries":1' \
           '"latency_ms"' '"p99_ms"' '"cache"' \
           '"degraded_reasons":{"budget":1,"solve":1}' '"errors":{"panic":1}' '"throughput"'; do
  if ! grep -q "$key" "$stats_json"; then
    echo "vpec stats output is malformed: missing $key" >&2
    cat "$stats_json" >&2
    exit 1
  fi
done
# A generous threshold passes (exit 0)...
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  stats "$batch_ledger" --fail-if 'p99>60s' > /dev/null
# ...and a breached one fails with the runtime exit code (1, not a crash).
set +e
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  stats "$batch_ledger" --fail-if 'degraded>0%' > /dev/null 2> target/batch_smoke_failif.txt
failif_rc=$?
set -e
[ "$failif_rc" -eq 1 ] || { echo "vpec stats --fail-if must exit 1 on a breach (got $failif_rc)" >&2; exit 1; }
grep -q 'fail-if breached' target/batch_smoke_failif.txt \
  || { echo "vpec stats --fail-if breach must name the breached condition" >&2; exit 1; }

echo "==> passivity report at 4,096 bits (vpec model --kind wvpec-g:8)"
# `vpec model` takes symmetry and dominance from the stored entries of
# the sparse gwVPEC(8) matrix, certifies positive definiteness by
# Gershgorin when the diagonal dominates, and runs its eigenvalue margin
# on the compressed matrix: well under a second here. A dense check of
# the 4,096 x 4,096 matrix would take minutes and trip the timeout.
# The binary is built first, so the timeout times the report alone.
model_out="target/model_4096.txt"
cargo build --release -q -p vpec-cli --bin vpec
timeout 60 target/release/vpec model --bits 4096 --kind wvpec-g:8 > "$model_out"
grep -qx 'positive definite (passive): true' "$model_out" \
  || { cat "$model_out" >&2; echo "vpec model: 4096-bit gwVPEC(8) must be reported passive" >&2; exit 1; }

echo "==> workload benchmark smoke run (six paper-size workloads, wall_s within 3x of the reference)"
# One 1 s run of every workload at paper size. The benchmark exits 1 if
# any trial's oracle or pin fails, which the toy-size test step above
# does not reach. Its untraced trials also run the library's disabled
# trace path, so a slowdown there shows up in wall_s.
smoke_json="target/workloads-smoke.json"
smoke_log="target/workloads-smoke.txt"
timeout 900 cargo run --release -q --manifest-path workload-bench/Cargo.toml --bin workloads -- \
  --seconds 1 --out "$smoke_json" --spans target/workloads-smoke.jsonl > "$smoke_log" \
  || { tail -n 40 "$smoke_log" >&2; echo "workload benchmark smoke run failed" >&2; exit 1; }
# Each workload's median wall_s against scripts/workloads-reference.json,
# written by the same command on the host named in its header. The gate
# catches slowdowns by a multiple, not by a percentage: ten short runs of
# one binary gave medians up to 1.63x apart, and one worker against two is
# about 2x. Smaller regressions are judged by the benchmark's paired runs.
# Ratchet rule: a change that moves a workload's median wall_s by more
# than its spread (the interquartile range of its runs) re-records the
# reference with the command above (median of 3 runs), so the gate does
# not go slack as the code gets faster.
awk '
  FNR == 1 { f++ }
  /^\{"name":"/ {
    w = $0; sub(/^\{"name":"/, "", w); sub(/".*/, "", w)
    v = $0; sub(/.*\{"name":"wall_s"[^}]*"median":/, "", v); sub(/[,}].*/, "", v)
    if (f == 1) order[++n] = w
    wall[f "/" w] = v + 0
  }
  END {
    bad = 0
    for (i = 1; i <= n; i++) {
      w = order[i]; b = wall["1/" w]; c = wall["2/" w]
      if (!(b > 0 && c > 0)) { printf "workload %s has no wall_s in one of the files\n", w > "/dev/stderr"; bad = 1; continue }
      ratio = c / b
      printf "%-18s wall_s reference %.3f s, current %.3f s (ratio %.2f)\n", w, b, c, ratio
      if (ratio > 3.0) {
        printf "workload regression: %s wall_s is >3x the reference\n", w > "/dev/stderr"
        bad = 1
      }
    }
    if (n == 0) { print "no workloads in the reference" > "/dev/stderr"; bad = 1 }
    exit bad
  }' scripts/workloads-reference.json "$smoke_json"

echo "==> all checks passed"
