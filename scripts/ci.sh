#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
# The workspace has no registry dependencies, so this runs without
# network access. Run from anywhere; it cd's to the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace -q --features fault-inject"
cargo test --workspace -q --features fault-inject

# Thread matrix: the reproducibility harness re-runs pinned to 1 and 4
# workers. The default run above already covers 1,2,4,8; the pinned
# passes prove the suite itself is thread-count-clean (a regression that
# only shows up at a specific count fails here with a readable name).
for t in 1 4; do
  echo "==> cargo test -q --test par_determinism (SEMSIM_TEST_THREADS=$t)"
  SEMSIM_TEST_THREADS=$t cargo test -q --test par_determinism
done

# The build stage above already produced every bench binary; the perf
# stages below invoke them directly instead of going through
# `cargo run`, so one shared release build serves the whole script.
echo "==> par_scaling determinism + speedup"
scaling_out=$(./target/release/par_scaling events=1500 nb=10 ng=8)
echo "$scaling_out"
# The ≥2.5x-at-4-threads acceptance gate only means something on a host
# that actually has 4 cores; single-core CI still runs the bin (its exit
# code asserts bit-identity across thread counts) but skips the gate.
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  speedup=$(echo "$scaling_out" | grep -oP 'par-scaling-speedup-4: \K[0-9.]+')
  awk -v s="$speedup" 'BEGIN { exit !(s >= 2.5) }' \
    || { echo "FAIL: 4-thread speedup ${speedup}x below the 2.5x floor"; exit 1; }
else
  echo "skip: speedup floor needs >= 4 cores (host has $cores)"
fi

echo "==> hotpath bit-identity + speedup vs dense reference"
hotdir=$(mktemp -d)
# Defaults reach c432 (2072 junctions) — the speedup grows with size,
# so gating on a smaller "largest benchmark" would test the wrong claim.
hotpath_out=$(./target/release/hotpath out="$hotdir/BENCH_hotpath.json")
echo "$hotpath_out"
ls153=$(grep -A3 '"name": "74LS153"' "$hotdir/BENCH_hotpath.json" \
  | grep -oP '"speedup": \K[0-9.]+' || true)
rm -rf "$hotdir"
[ -n "$ls153" ] || { echo "FAIL: hotpath measured no 74LS153 row"; exit 1; }
# The binary itself exits nonzero if the optimized solver's trajectory
# is not bit-identical to the dense-reference oracle. The speedup floors
# compare the two solvers within one run, so they are load-tolerant, but
# a single-core host is still too noisy to gate on. Beside c432's 2.5x,
# 74LS153 (224 junctions) must reach 1.318x = 0.9 x 1.4647, its last
# ratio under the retired per-commit trend. The floor is fixed: a
# ratchet against the committed results/BENCH_hotpath.json would sit
# inside this ratio's run-to-run spread.
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
  hspeed=$(echo "$hotpath_out" | grep -oP 'hotpath-speedup-largest: \K[0-9.]+')
  awk -v s="$hspeed" 'BEGIN { exit !(s >= 2.5) }' \
    || { echo "FAIL: hotpath speedup ${hspeed}x below the 2.5x floor (optimized vs dense reference)"; exit 1; }
  awk -v s="$ls153" 'BEGIN { exit !(s >= 1.318) }' \
    || { echo "FAIL: hotpath 74LS153 speedup ${ls153}x below the 1.318x floor (optimized vs dense reference)"; exit 1; }
else
  echo "skip: hotpath speedup floors need >= 2 cores (host has $cores)"
fi

echo "==> figure bins: byte-identical committed results/"
# Every figure below is a pure function of its default arguments (the
# thread count included), so rerunning it must reproduce the committed
# file byte for byte. fig1c (minutes) stays out for its runtime.
figdir=$(mktemp -d)
for fig in fig1b fig5 cotunnel_check jqp_cycles adaptive_locality ablation; do
  ./target/release/$fig > "$figdir/$fig.txt"
  cmp "$figdir/$fig.txt" "results/$fig.txt" \
    || { echo "FAIL: $fig output differs from results/$fig.txt"; exit 1; }
done
rm -rf "$figdir"
echo "figures OK: fig1b fig5 cotunnel_check jqp_cycles adaptive_locality ablation"

echo "==> semsim validate: byte-identical results/VALIDATE.json"
# The grid is deterministic, so rerunning it under the commit label the
# committed report records must reproduce results/VALIDATE.json byte for
# byte: any change to a trajectory bit shows up here. The report goes to
# a scratch directory, so CI rewrites nothing under results/.
vdir=$(mktemp -d)
vcommit=$(grep -oP '"commit": "\K[^"]+' results/VALIDATE.json)
if validate_out=$(./target/release/semsim validate \
    --json "$vdir/VALIDATE.json" --commit "$vcommit"); then
  echo "$validate_out"
else
  echo "$validate_out"
  echo "FAIL: validation grid out of tolerance"; exit 1
fi
cmp "$vdir/VALIDATE.json" results/VALIDATE.json \
  || { echo "FAIL: regenerated validation report differs from results/VALIDATE.json"; exit 1; }
./target/release/semsim json-verify results/VALIDATE.json \
  || { echo "FAIL: results/VALIDATE.json does not validate"; exit 1; }
rm -rf "$vdir"

echo "==> semsim lint --deny warnings --format json (examples + clean fixtures)"
# The shipped examples and the lint-clean fixtures must stay clean even
# with every warning escalated; the JSON report must satisfy the
# schema-version-1 validator the emitter is tested against.
lintdir=$(mktemp -d)
./target/release/semsim lint --deny warnings --format json \
  examples/netlists/* tests/fixtures/lint/clean_*.cir \
  > "$lintdir/report.json" \
  || { echo "FAIL: lint found problems:"; cat "$lintdir/report.json"; exit 1; }
./target/release/semsim json-verify "$lintdir/report.json" \
  || { echo "FAIL: lint JSON report does not validate"; exit 1; }
rm -rf "$lintdir"

echo "==> journaled sweep: crash, resume, diff against the clean run"
jdir=$(mktemp -d)
trap 'rm -rf "$jdir"' EXIT
./target/release/semsim sweep examples/netlists/set_sweep.cir --events 2000 \
  > "$jdir/clean.out"
./target/release/semsim sweep examples/netlists/set_sweep.cir --events 2000 \
  --journal "$jdir/sweep.jl" > "$jdir/ref.out"
diff "$jdir/clean.out" "$jdir/ref.out" \
  || { echo "FAIL: journaling changed the sweep output"; exit 1; }
# Simulate a mid-run kill: keep ~60% of the journal (a torn final
# record) and resume. The resumed output must be byte-identical.
full=$(stat -c %s "$jdir/sweep.jl")
head -c $(( full * 60 / 100 )) "$jdir/sweep.jl" > "$jdir/torn.jl"
mv "$jdir/torn.jl" "$jdir/sweep.jl"
./target/release/semsim sweep examples/netlists/set_sweep.cir --events 2000 \
  --journal "$jdir/sweep.jl" --resume > "$jdir/resumed.out" 2> "$jdir/resumed.err"
grep -q "restored from journal" "$jdir/resumed.err" \
  || { echo "FAIL: resume did not restore any points"; cat "$jdir/resumed.err"; exit 1; }
diff "$jdir/clean.out" "$jdir/resumed.out" \
  || { echo "FAIL: resumed sweep differs from the uninterrupted run"; exit 1; }
echo "resume OK: $(grep 'batch:' "$jdir/resumed.err")"

echo "==> serve: kill -9 mid-sweep, restart, byte-identical stream; 429; drain"
sdir=$(mktemp -d)
trap 'rm -rf "$jdir" "$sdir"' EXIT
bin=./target/release/semsim
port=$((18100 + RANDOM % 800))
# A sweep heavy enough (21 points x 2M events) to be mid-flight when
# the daemon is killed.
cat > "$sdir/job.json" <<'JSON'
{"source": "junc 1 1 4 1e-6 1e-18\njunc 2 2 4 1e-6 1e-18\ncap 3 4 3e-18\nvdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\nsymm 1\ntemp 5\nrecord 1 2 2\njumps 2000000 1\nsweep 2 0.02 0.002\n", "seed": 77}
JSON
wait_phase() { # addr phase
  for _ in $(seq 1 480); do
    "$bin" call "$1" GET /jobs/j1 2>/dev/null | grep -q "\"phase\":\"$2\"" && return 0
    sleep 0.25
  done
  return 1
}
# Clean baseline.
"$bin" serve --port "$port" --workers 1 --data-dir "$sdir/clean" 2> "$sdir/clean.log" &
spid=$!
sleep 0.5
"$bin" call "127.0.0.1:$port" POST /jobs "$sdir/job.json" > /dev/null 2>&1
wait_phase "127.0.0.1:$port" done \
  || { echo "FAIL: clean serve job never finished"; exit 1; }
"$bin" call "127.0.0.1:$port" GET /jobs/j1/stream > "$sdir/clean.txt" 2>/dev/null
"$bin" call "127.0.0.1:$port" POST /drain > /dev/null 2>&1
wait $spid || { echo "FAIL: drained daemon exited nonzero"; exit 1; }
# Crash run: same job, kill -9 once >= 2 points are journaled, restart
# on the same data dir, and the streamed result must be byte-identical.
"$bin" serve --port "$port" --workers 1 --data-dir "$sdir/crash" 2> "$sdir/crash.log" &
spid=$!
sleep 0.5
"$bin" call "127.0.0.1:$port" POST /jobs "$sdir/job.json" > /dev/null 2>&1
progressed=0
for _ in $(seq 1 480); do
  n=$("$bin" call "127.0.0.1:$port" GET /jobs/j1 2>/dev/null \
    | grep -o '"points_done":[0-9]*' | cut -d: -f2)
  if [ "${n:-0}" -ge 2 ]; then progressed=1; break; fi
  sleep 0.25
done
[ "$progressed" = 1 ] || { echo "FAIL: no serve progress before kill"; exit 1; }
kill -9 $spid; wait $spid 2>/dev/null || true
"$bin" serve --port "$port" --workers 1 --data-dir "$sdir/crash" 2> "$sdir/restart.log" &
spid=$!
sleep 0.5
grep -q "restored from journal" "$sdir/restart.log" \
  || { echo "FAIL: restart did not resume the interrupted job"; cat "$sdir/restart.log"; exit 1; }
wait_phase "127.0.0.1:$port" done \
  || { echo "FAIL: resumed serve job never finished"; exit 1; }
"$bin" call "127.0.0.1:$port" GET /jobs/j1/stream > "$sdir/crash.txt" 2>/dev/null
diff "$sdir/clean.txt" "$sdir/crash.txt" \
  || { echo "FAIL: kill -9 + restart changed the streamed results"; exit 1; }
"$bin" call "127.0.0.1:$port" POST /drain > /dev/null 2>&1
wait $spid || { echo "FAIL: restarted daemon exited nonzero after drain"; exit 1; }
echo "serve restart OK: $(grep 'restored from journal' "$sdir/restart.log")"
# Saturation: one worker, queue depth 1 -> the third submission gets a
# structured 429 while the first two are admitted.
"$bin" serve --port "$port" --workers 1 --queue-depth 1 \
  --data-dir "$sdir/sat" 2> "$sdir/sat.log" &
spid=$!
sleep 0.5
"$bin" call "127.0.0.1:$port" POST /jobs "$sdir/job.json" > /dev/null 2>&1
wait_phase "127.0.0.1:$port" running \
  || { echo "FAIL: first job never started"; exit 1; }
"$bin" call "127.0.0.1:$port" POST /jobs "$sdir/job.json" > /dev/null 2>&1
code=$("$bin" call "127.0.0.1:$port" POST /jobs "$sdir/job.json" 2>&1 >/dev/null \
  | grep -o 'HTTP [0-9]*' || true)
[ "$code" = "HTTP 429" ] \
  || { echo "FAIL: saturated queue answered '$code', wanted HTTP 429"; exit 1; }
"$bin" call "127.0.0.1:$port" DELETE /jobs/j1 > /dev/null 2>&1
"$bin" call "127.0.0.1:$port" DELETE /jobs/j2 > /dev/null 2>&1
"$bin" call "127.0.0.1:$port" POST /drain > /dev/null 2>&1
wait $spid || { echo "FAIL: saturated daemon exited nonzero after drain"; exit 1; }
echo "serve admission OK: third submission met HTTP 429"

echo "==> journal overhead budget (<10%) + bit-identity"
journal_out=$(./target/release/journal_overhead)
echo "$journal_out"
jpct=$(echo "$journal_out" | grep -oP 'journal-overhead-pct: \K[-0-9.]+')
awk -v p="$jpct" 'BEGIN { exit !(p < 10.0) }' \
  || { echo "FAIL: journal overhead ${jpct}% exceeds the 10% budget"; exit 1; }

echo "==> drift-audit overhead budget (<5%)"
overhead_out=$(./target/release/audit_overhead)
echo "$overhead_out"
pct=$(echo "$overhead_out" | grep -oP 'audit-overhead-pct: \K[-0-9.]+')
awk -v p="$pct" 'BEGIN { exit !(p < 5.0) }' \
  || { echo "FAIL: drift-audit overhead ${pct}% exceeds the 5% budget"; exit 1; }

# Chaos campaigns come last: they need feature-flipped release builds,
# so every stage that wants the plain release binary runs first.
echo "==> semsim chaos: 200 deterministic fault campaigns, 0 violations"
cargo build -q --release --features fault-inject
chdir=$(mktemp -d)
trap 'rm -rf "$jdir" "$sdir" "$chdir"' EXIT
./target/release/semsim chaos --campaigns 200 --seed 1 --out "$chdir" \
  > "$chdir/log_a.txt" \
  || { echo "FAIL: chaos campaigns violated a recovery invariant:"; \
       grep VIOLATION "$chdir/log_a.txt"; exit 1; }
./target/release/semsim chaos --campaigns 200 --seed 1 --out "$chdir" \
  > "$chdir/log_b.txt"
diff "$chdir/log_a.txt" "$chdir/log_b.txt" > /dev/null \
  || { echo "FAIL: chaos campaign log is not byte-identical across runs"; exit 1; }
tail -1 "$chdir/log_a.txt"

echo "==> chaos self-test: the known-bug build must be caught and minimized"
cargo build -q --release --features chaos-known-bug
if ./target/release/semsim chaos --campaigns 40 --seed 1 --out "$chdir/bug" \
    > "$chdir/bug.log" 2>/dev/null; then
  echo "FAIL: the known-bug build passed the chaos campaigns"; exit 1
fi
repro=$(ls "$chdir/bug"/chaos_repro_*.json 2>/dev/null | head -1)
[ -n "$repro" ] || { echo "FAIL: known-bug run wrote no repro"; exit 1; }
grep -q '"kind":"bit_rot"' "$repro" \
  || { echo "FAIL: repro lacks the planted bit_rot bug:"; cat "$repro"; exit 1; }
[ "$(grep -c '"kind":' "$repro")" -eq 1 ] \
  || { echo "FAIL: repro not minimized to a single fault:"; cat "$repro"; exit 1; }
./target/release/semsim chaos --replay "$repro" > /dev/null 2>&1 \
  && { echo "FAIL: known-bug replay did not reproduce the violation"; exit 1; }
echo "chaos self-test OK: $(basename "$repro") minimized to the planted bit_rot"
# Leave a plain release binary behind, as every earlier stage built.
cargo build -q --release --workspace

echo "CI OK"
