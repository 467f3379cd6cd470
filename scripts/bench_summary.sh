#!/usr/bin/env bash
# bench-summary: tabulate a bench --json file.
#
# Rows in BENCH_scorr.json are keyed by (run, circuit, engine): several
# bench targets measure the same (circuit, engine) pair under different
# options (e.g. ablation-engine and ablation-speculation both emit
# "sat" rows), so grouping by circuit/engine alone double-counts.  This
# script prints one line per (run, circuit, engine) key and fails if
# any key appears twice — the invariant the "run" field exists to keep.
# It also fails when a row lacks one of the columns it prints, or
# repeats a JSON key inside the row.
#
# Usage: bench_summary.sh [BENCH_scorr.json]

set -eu

JSON=${1:-BENCH_scorr.json}
[ -f "$JSON" ] || { echo "bench-summary: no such file: $JSON" >&2; exit 2; }

command -v jq >/dev/null || { echo "bench-summary: jq not found" >&2; exit 2; }

# Parsed normally, jq keeps only the last copy of a repeated key; the
# event stream still shows both.  An event that opens a row member has a
# [row, key] path, or [row, key, 0, ...] when the member is a non-empty
# array.
repeated=$(jq -c --stream \
  'select(length == 2) | .[0] | select(length == 2 or (.[2:] | all(. == 0))) | .[0:2]' \
  "$JSON" | sort | uniq -d)
if [ -n "$repeated" ]; then
  echo "bench-summary: a row repeats a key ([row, key]):" >&2
  echo "$repeated" >&2
  exit 1
fi

missing=$(jq -r '.[] | . as $row
  | [("run", "circuit", "engine", "verdict", "seconds", "conflicts", "eq_pct")
     | select(. as $k | $row | has($k) | not)]
  | select(length > 0)
  | "\($row.run // "?")/\($row.circuit // "?")/\($row.engine // "?"): \(join(", "))"' "$JSON")
if [ -n "$missing" ]; then
  echo "bench-summary: rows without a required column:" >&2
  echo "$missing" >&2
  exit 1
fi

dups=$(jq -r '.[] | "\(.run // "unknown")/\(.circuit)/\(.engine)"' "$JSON" \
  | sort | uniq -d)
if [ -n "$dups" ]; then
  echo "bench-summary: duplicate (run, circuit, engine) keys:" >&2
  echo "$dups" >&2
  exit 1
fi

printf '%-22s %-9s %-12s %-8s %9s %10s %8s\n' \
  run circuit engine verdict seconds conflicts eq_pct
jq -r '.[] |
  [(.run // "unknown"), .circuit, .engine, .verdict,
   (.seconds | tostring), ((.conflicts // 0) | tostring),
   ((.eq_pct // 0) | tostring)] | @tsv' "$JSON" \
| while IFS=$'\t' read -r run circuit engine verdict seconds conflicts eq; do
    printf '%-22s %-9s %-12s %-8s %9s %10s %8s\n' \
      "$run" "$circuit" "$engine" "$verdict" "$seconds" "$conflicts" "$eq"
  done
