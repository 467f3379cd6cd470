#!/usr/bin/env bash
# ab_perfbench: the alternated-pairs no-regression protocol for perfbench.
#
# Usage: ab_perfbench.sh PARENT CHANGE WORKLOAD N
#
# PARENT and CHANGE are git revisions of this repository; "." names the
# working tree as it stands (uncommitted edits included).  Each revision
# is exported with `git archive` into its own temporary directory, so
# the repository's checkout and worktree list are left alone.  The
# script then runs N pairs of
#
#     python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECS
#
# alternating which side goes first (odd pairs parent first, even pairs
# change first), so host drift over minutes lands on both sides alike.
# It prints, for every end-to-end metric of BENCHMARK.json, each side's
# median and quartiles over the N runs, the change/parent ratio of the
# medians, how many pairs the change won, and whether the change is
# worse than the parent by more than the metric's bound.  BENCHMARK.json
# is only read.  Exit status 1 when some metric is outside its bound.
#
# Environment: AB_SEED (default 1), AB_SECONDS (default 30), AB_KEEP=1
# keeps the temporary directory (its results/ holds every run's JSON).

set -eu

[ $# -eq 4 ] || { echo "usage: $0 PARENT CHANGE WORKLOAD N" >&2; exit 2; }
PARENT=$1 CHANGE=$2 WORKLOAD=$3 N=$4
SEED=${AB_SEED:-1}
SECS=${AB_SECONDS:-30}
ROOT=$(git rev-parse --show-toplevel)

TMP=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
if [ "${AB_KEEP:-0}" != 1 ]; then trap 'rm -rf "$TMP"' EXIT; fi
mkdir -p "$TMP/results"

# export one side; "." copies the tracked and untracked-but-not-ignored
# files of the working tree
export_side() {
  local rev=$1 dir=$2
  mkdir -p "$dir"
  if [ "$rev" = . ]; then
    (cd "$ROOT" && git ls-files -z --cached --others --exclude-standard \
      | tar -cf - --null --ignore-failed-read -T - 2>/dev/null) | tar -xf - -C "$dir"
  else
    git -C "$ROOT" archive "$rev" | tar -xf - -C "$dir"
  fi
}

export_side "$PARENT" "$TMP/parent"
export_side "$CHANGE" "$TMP/change"

run_side() {
  local side=$1 i=$2
  echo "pair $i: $side" >&2
  (cd "$TMP/$side" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECS" --trace 0) | tail -n 1 > "$TMP/results/$side.$i.json"
}

for i in $(seq 1 "$N"); do
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent "$i"; run_side change "$i"
  else
    run_side change "$i"; run_side parent "$i"
  fi
done

python3 - "$ROOT/BENCHMARK.json" "$TMP/results" "$N" "$WORKLOAD" <<'EOF'
import json, sys

bench_path, results, n, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
with open(bench_path) as f:
    bench = json.load(f)

def load(side, i):
    with open(f"{results}/{side}.{i}.json") as f:
        return json.load(f)

runs = {side: [load(side, i) for i in range(1, n + 1)] for side in ("parent", "change")}

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def value(run, name):
    return run["metrics"][name]["value"]

print(f"workload {workload}, {n} alternated pairs")
for side in ("parent", "change"):
    failed = sum(r.get("failed", 0) for r in runs[side])
    attempted = sum(r.get("attempted", 0) for r in runs[side])
    correct = all(r.get("correct", False) for r in runs[side])
    print(f"  {side}: attempted {attempted}, failed {failed}, correct {correct}")
print(f"{'metric':<20}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
      f"{'ratio':>8}{'won':>6}{'bound':>7}  verdict")
outside = False
for m in bench["end_to_end"]:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    p = [value(r, name) for r in runs["parent"]]
    c = [value(r, name) for r in runs["change"]]
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    ratio = cm / pm if pm else float("nan") if cm else 1.0
    won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
    worse = (ratio < 1 - bound) if higher else (ratio > 1 + bound)
    outside |= worse
    fmt = lambda xs, med: f"{med:.4g} [{quantile(xs, 0.25):.4g}, {quantile(xs, 0.75):.4g}]"
    print(f"{name:<20}{fmt(p, pm):>34}{fmt(c, cm):>34}{ratio:>8.3f}{won:>4}/{n}"
          f"{bound:>7.2f}  {'WORSE than bound' if worse else 'within bound'}")
sys.exit(1 if outside else 0)
EOF
