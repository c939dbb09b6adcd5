#!/usr/bin/env bash
# The benchmark's own noise floor: runs every workload RUNS times with
# RUNS different seeds, twice (sets A and B of the same code), and checks
# each end-to-end metric the way the benchmark is judged:
#
#   spread  = (Q3 - Q1) / median of a set's values   must be <= bound (setup_s exempt)
#   drift   = how much worse set B's median is than set A's   must be <= bound
#
#   bash benchmark/repeat.sh [RUNS=10] [workload ...]
#
# Exits non-zero if any pair fails. Logs of every run are kept under the
# build directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(mem_dense lsm_cold serve_wire serve_ingest ingest_live)
fi
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
logs="${CARGO_TARGET_DIR:-$here/target}/repeat"
rm -rf "$logs"
mkdir -p "$logs"
for set in A B; do
  for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$runs"); do
      echo "set $set  $w  seed $seed" >&2
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$logs/$set-$w-$seed.log"
    done
  done
done
python3 - "$here/../BENCHMARK.json" "$logs" "$runs" "${workloads[@]}" <<'PY'
import json, re, statistics, sys

spec = json.load(open(sys.argv[1]))
logs, runs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
failed = False

def load(set_name, workload):
    values, shares = {}, []
    for seed in range(1, runs + 1):
        lines = open(f"{logs}/{set_name}-{workload}-{seed}.log").read().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, (set_name, workload, seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shares += [float(m.group(1)) for l in lines if (m := re.search(r"within ±20% of op_p50_ms: ([0-9.]+)", l))]
    return values, shares

def spread(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    return (q3 - q1) / statistics.median(v)

print(f"{'workload':<13}{'metric':<15}{'median A':>11}{'median B':>11}{'range A':>21}{'range B':>21}"
      f"{'spread A':>9}{'spread B':>9}{'drift':>8}{'bound':>7}  verdict")
for w in workloads:
    (a, share_a), (b, share_b) = load("A", w), load("B", w)
    for m in spec["end_to_end"]:
        name, bound, sign = m["name"], m["bound"], 1 if m["better"] == "lower" else -1
        ma, mb = statistics.median(a[name]), statistics.median(b[name])
        drift = sign * (mb - ma) / ma
        sa, sb = spread(a[name]), spread(b[name])
        ok = drift <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        failed |= not ok
        margin = "" if max(sa, sb) <= bound / 3 or name == "setup_s" else "  (spread above bound/3)"
        rng = lambda v: f"{min(v):.4g}..{max(v):.4g}"
        print(f"{w:<13}{name:<15}{ma:>11.4f}{mb:>11.4f}{rng(a[name]):>21}{rng(b[name]):>21}"
              f"{sa:>9.3f}{sb:>9.3f}{drift:>+8.3f}{bound:>7.2f}  {'ok' if ok else 'FAIL'}{margin}")
    low = min(share_a + share_b)
    print(f"{w:<13}share of median-class ops within ±20% of op_p50_ms: lowest of {len(share_a + share_b)} runs {low:.3f}"
          + ("" if low >= 0.9 or w != "serve_wire" else "  FAIL (median sits between two modes)"))
    failed |= w == "serve_wire" and low < 0.9
sys.exit(1 if failed else 0)
PY
