#!/usr/bin/env bash
# The checks that need the release profile or minutes. Every other check is
# a tier-1 test (`cargo test`). CI runs this script after `cargo test`, and
# it runs the same anywhere in a checkout: `ci/local.sh`, no flags. It stops
# with a non-zero exit at the first failing check. docs/GUIDE.md, "Where
# each check runs", maps every check to its place.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
step() { printf '\n== %s\n' "$*" >&2; }

cargo build --release
cargo build --release --example gen_swf
target="${CARGO_TARGET_DIR:-target}"
resa="$target/release/resa"
gen_swf="$target/release/examples/gen_swf"

step "overlay scaling (32 000 standing reservations)"
# A write must cost what it changes, not the overlay it joins: this session
# took 24 s while every reserve rebuilt the timeline, re-swept every
# window's edges and (on sockets) re-froze the function; it takes well
# under 1 s now. The 10 s cap sits a factor of ten from either, so it fails
# on a returning quadratic pass, not a slow host.
awk 'BEGIN {
  for (k = 0; k < 32000; k++)
    printf "{\"op\":\"reserve\",\"width\":%d,\"duration\":%d,\"start\":%d}\n", \
      1 + k % 4, 2 + k % 7, 20000 + 10 * k
  print "{\"op\":\"stats\"}"
}' > "$dir/overlay.jsonl"
timeout 10 "$resa" serve --machines 16 --policy easy \
  --script "$dir/overlay.jsonl" | grep -q '"reservations":32000'

step "each §2.2 rule schedules alike on-line and off-line (sweep-grid shape)"
# `easy`/`offline:easy`, `greedy`/`offline:lsrc` and `fcfs`/`offline:fcfs`
# run the same decisions (`resa_core::decision`): on the benchmark's grid
# (Lublin, 128 machines, 2 500 jobs, 4 seeds, α = ½ overlay) their rows
# differ in the policy name only, on each of three base seeds. Each run
# takes well under a second; the 60 s cap fails on a returning
# per-decision rescan.
for seed in 1 7 42; do
  for policy in easy offline:easy greedy offline:lsrc fcfs offline:fcfs; do
    printf '{"machines":[128],"jobs":2500,"seeds":4,"workload":"lublin","policies":["%s"],"reservations":{"family":"alpha","alpha":"1/2","count":250}}\n' \
      "$policy" > "$dir/spec.json"
    timeout 60 "$resa" sweep "$dir/spec.json" \
      --threads 2 --format json --seed "$seed" > "$dir/$policy.raw"
    grep -q '"mean_makespan"' "$dir/$policy.raw"
    grep -v '"policy":' "$dir/$policy.raw" > "$dir/$policy.rows"
  done
  diff "$dir/easy.rows" "$dir/offline:easy.rows"
  diff "$dir/greedy.rows" "$dir/offline:lsrc.rows"
  diff "$dir/fcfs.rows" "$dir/offline:fcfs.rows"
done

step "archive-scale replay (bounded memory, real deflate, gzip members)"
# A ~500k-line gzipped log, imported through the checksum-pinned cache and
# replayed under an address-space cap a whole-trace-in-memory replay could
# not honor at this length.
"$gen_swf" 500000 "$dir/big.swf.gz" 64
"$resa" fetch big --from "$dir/big.swf.gz" --cache "$dir/cache"
( ulimit -v 262144
  RESA_TRACE_CACHE="$dir/cache" "$resa" replay trace:big \
    --policy easy --format json > "$dir/big.json" )
grep -q '"jobs": 500000' "$dir/big.json"
grep -q '"schedule_valid": true' "$dir/big.json"
# `gen_swf` writes stored blocks only. Real deflate: the same trace
# compressed by the system's gzip (dynamic-Huffman blocks) replays to the
# same report as the plain text, under the same cap.
"$gen_swf" 500000 "$dir/real.swf" 64
gzip -k "$dir/real.swf"
for trace in real.swf real.swf.gz; do
  ( ulimit -v 262144
    "$resa" replay "$dir/$trace" \
      --policy easy --format json | grep -v '"trace":' > "$dir/$trace.json" )
done
grep -q '"jobs": 500000' "$dir/real.swf.json"
diff "$dir/real.swf.json" "$dir/real.swf.gz.json"
# A gzip file is a series of members: `cat a.gz b.gz` replays like
# `cat a b`, not like `a` alone.
"$gen_swf" 20 "$dir/a.swf" 8
sed 1,2d "$dir/a.swf" | awk '{ print $1 + 20, $2 + 40, $3, $4 }' > "$dir/b.swf"
cat "$dir/a.swf" "$dir/b.swf" > "$dir/ab.swf"
gzip -c "$dir/a.swf" > "$dir/ab.swf.gz"
gzip -c "$dir/b.swf" >> "$dir/ab.swf.gz"
for trace in ab.swf ab.swf.gz; do
  "$resa" replay "$dir/$trace" \
    --policy easy --format json | grep -v '"trace":' > "$dir/$trace.json"
done
grep -q '"jobs": 40' "$dir/ab.swf.json"
diff "$dir/ab.swf.json" "$dir/ab.swf.gz.json"

step "paper-model replays exit 0 under every policy (300 tiny traces)"
# Seeded traces in the paper's model: m <= 5 machines, n <= 8 jobs, all
# submitted at 0, so every reference is the exact optimum and every check
# is decided against it. The upper bounds are proven for LSRC-class
# schedules only (`greedy`, `offline:lsrc`, `offline:lsrc-lpt`), which must
# satisfy them; FCFS and backfilling have no constant bound (§2.2), so
# their checks are informational. Any exit 2 is a broken reproduction.
# 4 800 runs take about 15 s; each has a 10 s cap.
awk -v dir="$dir" 'BEGIN {
  x = 42
  for (t = 0; t < 300; t++) {
    x = (x * 16807) % 2147483647; m = 1 + x % 5
    x = (x * 16807) % 2147483647; n = 1 + x % 8
    f = dir "/tiny" t ".swf"
    printf "; MaxProcs: %d\n", m > f
    for (j = 1; j <= n; j++) {
      x = (x * 16807) % 2147483647; run = 1 + x % 20
      x = (x * 16807) % 2147483647; procs = 1 + x % m
      printf "%d 0 %d %d\n", j, run, procs > f
    }
    close(f)
  }
}'
for t in $(seq 0 299); do
  for overlay in none alpha:1/2; do
    for policy in fcfs easy greedy offline:lsrc offline:lsrc-lpt \
      offline:fcfs offline:conservative offline:easy; do
      timeout 10 "$resa" replay "$dir/tiny$t.swf" --policy "$policy" \
        --reservations "$overlay" --format json > /dev/null ||
        { echo "tiny$t.swf --policy $policy --reservations $overlay" >&2; exit 1; }
    done
  done
done

step "concurrency tests, 20 times over (a lost wake-up fails as a hang)"
# The concurrent front has no writer thread: whichever session holds the
# write lock applies everyone's queued writes. A request left unanswered in
# that hand-off would pass a single run by luck; twenty runs under a
# timeout turn it into a failure.
cargo test --release -p resa-sim --test concurrent_stress --no-run
cargo test --release -p resa-cli --test serve_concurrent --no-run
for i in $(seq 20); do
  echo "round $i" >&2
  timeout 120 cargo test -q --release -p resa-sim --test concurrent_stress
  timeout 120 cargo test -q --release -p resa-cli --test serve_concurrent
done

step "benchmark workspace: build, unit tests, every workload at quick size"
# benchmark/ is its own workspace and its `layers` crate follows the
# library API, so a library change can break it without the root build
# noticing. `run.sh` exits non-zero on any "correct": false.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --offline --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick

step "all checks passed"
