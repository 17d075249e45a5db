#!/usr/bin/env bash
# Sampling profile of one benchmark workload: where the host time goes.
#
#   scripts/profile.sh WORKLOAD SECONDS     e.g. scripts/profile.sh query_scan 60
#
# Runs the already-built benchmark binary
# (`cargo build --release --manifest-path benchmark/Cargo.toml`) for
# SECONDS of timed phase with tracing off, under `gprofng collect app -p on`
# (clock profiling), and prints `gprofng display text -calltree` trimmed to
# the nodes holding at least 1 % of the inclusive samples.
#
# The sampler records only part of the CPU time the process spends, so only
# the shares it prints are meaningful, never its absolute seconds. Set-up
# and warm-up are sampled too; profile for long enough (tens of seconds)
# that the timed phase dominates. The experiment directory is left in a
# temporary directory whose path is printed first.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
    echo "usage: $0 WORKLOAD SECONDS" >&2
    exit 2
fi
workload=$1
seconds=$2
bin=benchmark/target/release/amada-benchmark
if [ ! -x "$bin" ]; then
    echo "$bin is not built: cargo build --release --manifest-path benchmark/Cargo.toml" >&2
    exit 2
fi

dir=$(mktemp -d)
exp="$dir/$workload.er"
echo "# experiment: $exp"
gprofng collect app -p on -o "$exp" \
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 >/dev/null
# A call-tree row reads "<incl. sec> <incl. %> <excl. sec> <excl. %> name";
# keep the header lines and every row whose inclusive share is ≥ 1 %.
gprofng display text -calltree "$exp" |
    awk '!/^ *[0-9.]+ +[0-9.]+ +[0-9.]+/ { print; next } $2 >= 1'
