#!/usr/bin/env bash
# Before/after on the repo benchmark, the way every perf claim has to be
# measured (the `choosing-metrics` rule): the parent revision and this
# working tree, built into separate target directories, run as alternating
# pairs — which side goes first flips every pair, each pair gets one fresh
# seed — and compared per metric x workload.
#
#   scripts/ab.sh <parent-rev> <pairs> <workload>... [--seconds S] [--scale F]
#
#   scripts/ab.sh HEAD~1 10 serve_ingest lsm_cold
#   scripts/ab.sh HEAD 1 lsm_cold --scale 0.05 --seconds 1     # CI smoke
#
# Verdicts: `gain` = the change wins >= 9/10 of the pairs and the medians
# differ by more than the parent's own interquartile range; `worse` = the
# change's median is worse than the parent's by more than the metric's
# bound in BENCHMARK.json; anything else is `unresolved`. Exits non-zero
# if any run is not `correct: true`. Run nothing else while it runs.
#
# The parent is exported with `git archive` into a scratch directory under
# $TMPDIR (no worktree is registered in the repository); scratch trees and
# build output are removed on exit, the per-run logs are kept. It reads
# BENCHMARK.json and calls each side's own benchmark/run.sh; it changes
# neither.
set -euo pipefail

usage() {
  sed -n '2,12p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 3 ] || usage
rev="$1"
pairs="$2"
shift 2
workloads=()
extra=()
seconds=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds="$2"; shift 2 ;;
    --scale) extra+=(--scale "$2"); shift 2 ;;
    --*) usage ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] && [ "$pairs" -ge 1 ] || usage

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$repo/BENCHMARK.json"
if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
fi
commit="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
if ! git -C "$repo" diff --quiet "$commit" -- benchmark BENCHMARK.json; then
  echo "warning: benchmark/ or BENCHMARK.json differ from $rev — the two sides are not measured by the same code" >&2
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/k2-ab.XXXXXX")"
logs="$work/logs"
mkdir -p "$work/parent" "$logs"
trap 'rm -rf "$work/parent" "$work/target-parent" "$work/target-change"' EXIT
git -C "$repo" archive "$commit" | tar -x -C "$work/parent"

declare -A tree=([parent]="$work/parent" [change]="$repo")
for side in parent change; do
  echo "building $side (${tree[$side]})" >&2
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
    --manifest-path "${tree[$side]}/benchmark/Cargo.toml" >&2
done

# Seeds nobody picked: a fresh base per invocation, one seed per pair.
seed_base=$(( $(date +%s) % 100000 ))
echo "parent $commit, $pairs pairs, seeds $seed_base..$(( seed_base + pairs - 1 )), --seconds $seconds ${extra[*]-}" >&2
for w in "${workloads[@]}"; do
  for i in $(seq 0 $(( pairs - 1 ))); do
    seed=$(( seed_base + i ))
    if [ $(( i % 2 )) -eq 0 ]; then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      echo "$w  pair $(( i + 1 ))/$pairs  seed $seed  $side" >&2
      CARGO_TARGET_DIR="$work/target-$side" bash "${tree[$side]}/benchmark/run.sh" \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 ${extra[@]+"${extra[@]}"} \
        >"$logs/$w-$i-$side.log" 2>"$logs/$w-$i-$side.err" || true
    done
  done
done

echo "logs: $logs" >&2
python3 - "$spec" "$logs" "$pairs" "${workloads[@]}" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
logs, pairs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bad = []

def load(workload, i, side):
    path = f"{logs}/{workload}-{i}-{side}.log"
    try:
        result = json.loads(open(path).read().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    if result.get("correct") is not True:
        bad.append(path)
    return {name: m["value"] for name, m in result.get("metrics", {}).items()}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

def cell(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}..{q3:.4g}]"

print(f"{'workload':<13}{'metric':<13}{'parent median [Q1..Q3]':>30}{'change median [Q1..Q3]':>30}"
      f"{'delta':>9}{'won':>7}{'bound':>7}  verdict")
for w in workloads:
    runs = [(load(w, i, "parent"), load(w, i, "change")) for i in range(pairs)]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        better = (lambda a, b: a < b) if m["better"] == "lower" else (lambda a, b: a > b)
        both = [(p[name], c[name]) for p, c in runs if name in p and name in c]
        if not both:
            print(f"{w:<13}{name:<13}{'no complete pair':>30}")
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        (q1, pm, q3), (_, cm, _) = quartiles(parent), quartiles(change)
        won = sum(better(c, p) for p, c in both)
        delta = (cm - pm) / pm if pm else 0.0
        worse_by = delta if m["better"] == "lower" else -delta
        if worse_by > bound:
            verdict = "worse"
        elif better(cm, pm) and won >= 0.9 * len(both) and abs(cm - pm) > q3 - q1:
            verdict = "gain"
        else:
            verdict = "unresolved"
        print(f"{w:<13}{name:<13}{cell(parent):>30}{cell(change):>30}"
              f"{delta * 100:>+8.1f}%{won:>4}/{len(both):<2}{bound:>7}  {verdict}")
if pairs < 10:
    print(f"note: {pairs} pair(s); a claim needs at least 10")
for path in bad:
    print(f"NOT CORRECT: {path}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
