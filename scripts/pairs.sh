#!/usr/bin/env bash
# Paired runs of the frozen benchmark, parent against change, at one fixed
# protocol, summarized as one BENCH_trajectory.jsonl row.
#
#   scripts/pairs.sh [options] PARENT CHANGE WORKDIR
#
# PARENT and CHANGE are git revisions; CHANGE `WORKTREE` is this checkout's
# tracked files as they are now (staged new files included). Each side is
# exported with `git archive` into WORKDIR/<side>/src and its benchmark is
# built into its own target directory, WORKDIR/<side>/target. Then, per
# workload, the pairs run one after the other: odd pairs parent first, even
# pairs change first, each run `--workload W --seed S --seconds T --trace 0`
# at AMADA_THREADS=1, from its side's source root. Every run's output is
# kept under WORKDIR/runs. The row goes to stdout (and, with --append, to
# this checkout's BENCH_trajectory.jsonl); a per-metric table goes to
# stderr.
#
# The protocol, fixed for every trajectory row: seed 0xA3ADA, 15 s runs,
# ten pairs per workload, AMADA_THREADS=1, the five workloads of
# BENCHMARK.json. A row over fewer workloads records it in its "protocol"
# object ("all_workloads": false).
#
# Options:
#   --pr N            the row's "pr" field
#   --note TEXT       the row's "measured" field
#   --append          also append the row to BENCH_trajectory.jsonl
#   --workloads "A B" run only these workloads
#
# Per (workload, metric) the row holds the median of the per-pair ratios
# change/parent, the pairs the change led (ties count for neither side),
# each side's median and the parent's quartiles, and a verdict:
#   "over_bound"  the change's median is worse than the parent's by more
#                 than BENCHMARK.json's bound;
#   "worse" / "better"  one side led in at least nine tenths of the pairs
#                 and the medians differ by more than the parent's
#                 interquartile range;
#   "same"        neither.
# Per workload it checks that every virt_* metric is equal in every pair
# and reports each side's share of failed operations.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)

readonly pairs=10 seconds=15 seed=0xA3ADA
pr=null note="" append=0 workloads=""
while [ $# -gt 3 ]; do
    case "$1" in
        --pr) pr=$2; shift 2 ;;
        --note) note=$2; shift 2 ;;
        --append) append=1; shift ;;
        --workloads) workloads=$2; shift 2 ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done
if [ $# -ne 3 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_rev=$1 change_rev=$2 work=$3
if [ -z "$workloads" ]; then
    workloads=$(jq -r '.workloads[].name' "$repo/BENCHMARK.json" | tr '\n' ' ')
fi

# The commit a revision names; WORKTREE is the checkout's tracked files.
commit_of() {
    if [ "$1" = WORKTREE ]; then
        git -C "$repo" stash create | grep . || git -C "$repo" rev-parse HEAD
    else
        git -C "$repo" rev-parse "$1^{commit}"
    fi
}

mkdir -p "$work/runs"
declare -A commit bin
for side in parent change; do
    rev=$parent_rev
    [ "$side" = change ] && rev=$change_rev
    commit[$side]=$(commit_of "$rev")
    rm -rf "$work/$side/src"
    mkdir -p "$work/$side/src"
    git -C "$repo" archive "${commit[$side]}" | tar -x -C "$work/$side/src"
    echo "building $side (${commit[$side]:0:12})" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/src/benchmark/Cargo.toml" \
        --target-dir "$work/$side/target"
    bin[$side]=$work/$side/target/release/amada-benchmark
    (cd "$work/$side/src" && scripts/non_test_lines.sh --json) >"$work/$side/non_test_lines.json"
done

# One run: its full output in runs/, its last line (the result object) in
# runs/<workload>.<pair>.<side>.json.
run() {
    local side=$1 w=$2 i=$3 out="$work/runs/$2.$3.$1"
    (cd "$work/$side/src" &&
        AMADA_THREADS=1 "${bin[$side]}" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace 0) >"$out.log" 2>&1
    tail -n 1 "$out.log" >"$out.json"
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "$w pair $i: $side" >&2
            run "$side" "$w" "$i"
        done
    done
done

python3 - "$repo/BENCHMARK.json" "$work" "$pairs" "$seconds" "$seed" "$pr" "$note" \
    "${commit[parent]}" "${commit[change]}" $workloads >"$work/row.json" <<'PY'
import json, statistics, sys

spec_path, work, pairs, seconds, seed, pr, note, parent, change, *workloads = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(spec_path))
metrics = spec["end_to_end"]

def result(w, i, side):
    r = json.load(open(f"{work}/runs/{w}.{i}.{side}.json"))
    r["metrics"] = {k: v["value"] for k, v in r["metrics"].items()}
    return r

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

row = {
    "pr": None if pr == "null" else int(pr),
    "commit": change,
    "parent_commit": parent,
    "measured": note,
    "protocol": {
        "script": "scripts/pairs.sh",
        "seed": seed,
        "seconds": float(seconds),
        "pairs_per_workload": pairs,
        "order": "odd pairs parent first, even pairs change first",
        "threads": "AMADA_THREADS=1",
        "workloads": workloads,
        "all_workloads": sorted(workloads) == sorted(w["name"] for w in spec["workloads"]),
    },
    "runs_per_workload": {w: pairs for w in workloads},
    "paired": {},
    "virt_identical": {},
    "failed_share": {},
    "end_to_end": {},
    "parent_end_to_end": {},
}
table = []
for w in workloads:
    runs = [(result(w, i, "parent"), result(w, i, "change")) for i in range(1, pairs + 1)]
    virt = [m["name"] for m in metrics if m["name"].startswith("virt_")]
    row["virt_identical"][w] = all(p["metrics"][v] == c["metrics"][v] for p, c in runs for v in virt)
    share = lambda k: sum(r[k]["failed"] for r in runs) / max(1, sum(r[k]["attempted"] for r in runs))
    row["failed_share"][w] = {"parent": share(0), "change": share(1),
                              "all_correct": all(p["correct"] and c["correct"] for p, c in runs)}
    row["paired"][w], row["end_to_end"][w], row["parent_end_to_end"][w] = {}, {}, {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        ps = [p["metrics"][name] for p, _ in runs]
        cs = [c["metrics"][name] for _, c in runs]
        ratios = [c / p if p else float(c == p) for p, c in zip(ps, cs)]
        led = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
        trailed = sum((c > p) if lower else (c < p) for p, c in zip(ps, cs))
        pm, cm = statistics.median(ps), statistics.median(cs)
        q1, q3 = quartiles(ps)
        ratio = cm / pm if pm else 1.0
        worse_by = ratio if lower else (1 / ratio if ratio else float("inf"))
        if worse_by > 1 + m["bound"]:
            verdict = "over_bound"
        elif abs(cm - pm) > q3 - q1 and max(led, trailed) * 10 >= 9 * pairs:
            verdict = "better" if led > trailed else "worse"
        else:
            verdict = "same"
        row["paired"][w][name] = {
            "median_ratio": round(statistics.median(ratios), 4),
            "change_led": led,
            "parent_led": trailed,
            "parent_median": pm,
            "change_median": cm,
            "parent_quartiles": [q1, q3],
            "bound": m["bound"],
            "verdict": verdict,
        }
        row["end_to_end"][w][name] = cm
        row["parent_end_to_end"][w][name] = pm
        table.append(f"{w:16} {name:20} {statistics.median(ratios):7.3f} "
                     f"{led:2}/{pairs:<2} {verdict}")
row["non_test_lines"] = json.load(open(f"{work}/change/non_test_lines.json"))
row["non_test_lines_parent"] = json.load(open(f"{work}/parent/non_test_lines.json"))
print(json.dumps(row))
print("workload         metric               ratio   led   verdict", file=sys.stderr)
print("\n".join(table), file=sys.stderr)
for w in workloads:
    print(f"{w}: virt_* identical in every pair: {row['virt_identical'][w]}; "
          f"failed share {row['failed_share'][w]}", file=sys.stderr)
PY
cat "$work/row.json"
if [ "$append" = 1 ]; then
    cat "$work/row.json" >>"$repo/BENCH_trajectory.jsonl"
fi
