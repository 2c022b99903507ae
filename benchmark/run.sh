#!/usr/bin/env bash
# The benchmark's one command. Builds the release `resa` binary and the
# benchmark's own workspace, then hands every argument to the `e2e` driver:
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   one run
#   benchmark/run.sh [--seed S] [--quick]                            full report
#   benchmark/run.sh set <out.json> [--seeds 1,2,…]                  a set of runs
#   benchmark/run.sh compare <a.json> <b.json>                       regression rule
#
# See benchmark/README.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates/resa-cli ]]; then
    echo "benchmark/run.sh: no resa sources beside benchmark/ — nothing to measure" >&2
    exit 1
fi

# One target directory per workspace unless the caller names a shared one
# (relative names are taken from the repository root, where cargo runs).
root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"

build() {
    cargo build --release --offline --quiet -p resa-cli --bin resa --target-dir "$root_target" >&2
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$bench_target" >&2
}

# The build is the first part of every run's set-up, and like the rest of
# set-up it is done several times and its median reported (`setup_s` adds it
# to each session's own set-up). The first pass compiles whatever is stale; the
# others are the freshness check every later run in this checkout pays. One
# check alone reads 0.07-0.20 s on an idle host, which moved the median
# `setup_s` of ten runs by 24 % between two passes over the same commit.
build_times=()
for _ in 1 2 3 4 5; do
    pass_started=$(date +%s.%N)
    build
    build_times+=("$(awk -v a="$pass_started" -v b="$(date +%s.%N)" 'BEGIN { printf "%.6f", b - a }')")
done
BENCH_BUILD_S=$(printf '%s\n' "${build_times[@]}" | sort -g | sed -n 3p)
echo "build_s ${build_times[*]} -> median $BENCH_BUILD_S" >&2
export BENCH_BUILD_S

export BENCH_RESA="$root_target/release/resa"
export BENCH_LAYERS="$bench_target/release/layers"
export BENCH_OUT="benchmark/out"
mkdir -p "$BENCH_OUT"
exec "$bench_target/release/e2e" "$@"
