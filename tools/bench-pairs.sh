#!/usr/bin/env bash
# Paired comparison of the repo benchmark between a parent revision and the
# working tree, by the rule in bench/README.md ("**Rule.**": alternating pairs):
#
#   tools/bench-pairs.sh <parent-rev> <workload> [--seed N] [--pairs 10]
#
# Extracts <parent-rev> with `git archive` into a temporary directory
# (under $TMPDIR) — it never writes to .git, so it works in a read-only
# clone too — builds both bench/ packages once, each into its
# own target directory, then runs <pairs> pairs of draws from the repo root,
# alternating which side goes first. Per end-to-end metric of BENCHMARK.json
# it prints each side's median and quartiles, how many pairs the change won
# (ties count for neither side), and whether the medians differ by more than
# the distance between the parent's quartiles — a gain is claimed only with
# at least nine tenths of the pairs won *and* that difference. Run length is
# BENCHMARK.json's `run_seconds`, the same on both sides. A draw whose
# outputs differ from the sequential specification aborts the comparison.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> [--seed N] [--pairs 10]" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent_rev=$1
workload=$2
shift 2
seed=1
pairs=10
while [[ $# -gt 0 ]]; do
    case $1 in
        --seed) [[ $# -ge 2 ]] || usage; seed=$2; shift 2 ;;
        --pairs) [[ $# -ge 2 ]] || usage; pairs=$2; shift 2 ;;
        *) usage ;;
    esac
done
[[ $pairs =~ ^[0-9]+$ && $pairs -ge 2 ]] || { echo "--pairs must be at least 2" >&2; exit 2; }

cd "$(dirname "$0")/.."
root=$PWD
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"

build() { # <source root> <side>
    echo "building $2 ($1)" >&2
    CARGO_TARGET_DIR="$work/target-$2" \
        cargo build --quiet --release --offline --manifest-path "$1/bench/Cargo.toml"
}
build "$work/parent" parent
build "$root" change

draw() { # <side>: one draw, its result line appended to <side>.jsonl
    "$work/target-$1/release/dgs-perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >> "$work/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    echo "pair $((i + 1))/$pairs: $order" >&2
    for side in $order; do draw "$side"; done
done

python3 - "$work" "$parent_rev" "$workload" "$seed" <<'PY'
import json, statistics, sys

work, parent_rev, workload, seed = sys.argv[1:5]
spec = json.load(open("BENCHMARK.json"))
draws = {side: [json.loads(line) for line in open(f"{work}/{side}.jsonl")]
         for side in ("parent", "change")}
pairs = len(draws["parent"])
print(f"{workload} --seed {seed}: {pairs} alternating pairs, parent {parent_rev} vs working tree")
for side, rows in draws.items():
    failed, attempted = (sum(r[k] for r in rows) for k in ("failed", "attempted"))
    print(f"  {side}: failed {failed} of {attempted} attempted")
print(f"  {'metric':<16}{'parent median [q1, q3]':<46}{'change median [q1, q3]':<46}"
      f"{'won':<8}medians differ by more than the parent's q3 - q1")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    p, c = ([r["metrics"][name]["value"] for r in draws[side]] for side in ("parent", "change"))
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    cell = {}
    for side, xs in (("parent", p), ("change", c)):
        q1, _, q3 = statistics.quantiles(xs, n=4)  # exclusive, as bench/src/stats.rs
        cell[side] = (statistics.median(xs), q1, q3)
    (pm, pq1, pq3), (cm, _, _) = cell["parent"], cell["change"]
    differ = abs(cm - pm) > pq3 - pq1
    verdict = "no" if not differ else ("yes, better" if (cm > pm) == higher else "yes, worse")
    fmt = lambda t: f"{t[0]:.6g} [{t[1]:.6g}, {t[2]:.6g}]"
    print(f"  {name:<16}{fmt(cell['parent']):<46}{fmt(cell['change']):<46}"
          f"{f'{wins}/{pairs}':<8}{verdict}")
PY
