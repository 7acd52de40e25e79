#!/usr/bin/env bash
# Compares this checkout's performance with a base revision on one
# machine, using the benchmark in benchmark/ and BENCHMARK.json's
# bounds. Run it from the repository root:
#
#   bash .github/bench-compare.sh HEAD^
#
# The base revision is extracted with `git archive` into a temporary
# directory, which is removed on exit; the checkout's .git is only
# read. Each pair of runs measures every workload once on each side
# with one seed; which side goes first alternates from pair to pair, so
# drift in the machine's speed falls on both sides alike. Each side's
# runs are merged into one record, and `-compare` checks every
# end-to-end median of this checkout against the base's. The summary is
# written to cmp.json. The script exits non-zero if any metric regressed
# beyond its bound or any run failed its checks.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bash .github/bench-compare.sh <base-rev>" >&2
  exit 2
fi
base_rev=$1

seeds=(101 102 103 104 105)
workloads=(fleet-steady fleet-churn serve-mix paper)
seconds=15

root=$(pwd)
tmp=$(mktemp -d)
base="$tmp/base"
trap 'rm -rf "$tmp"' EXIT
mkdir "$base"
git -C "$root" archive "$base_rev" | tar -x -C "$base"
echo "base $(git -C "$root" rev-parse --short "$base_rev"), new $(git -C "$root" rev-parse --short HEAD) (working tree)"

failed=0
# run SIDE DIR SEED WORKLOAD: one recorded run in checkout DIR.
run() {
  local rec="$tmp/$1-$3-$4.json"
  echo "== $1 seed $3 $4"
  if ! (cd "$2" && bash benchmark/run.sh -workload "$4" -runs 1 -seed "$3" \
    -seconds "$seconds" -record "$rec" >/dev/null); then
    if [ ! -s "$rec" ]; then
      echo "bench-compare: $1 seed $3 $4 wrote no record" >&2
      exit 1
    fi
    failed=1
  fi
}

for i in "${!seeds[@]}"; do
  seed=${seeds[$i]}
  for w in "${workloads[@]}"; do
    if (( i % 2 == 0 )); then
      run base "$base" "$seed" "$w"
      run new "$root" "$seed" "$w"
    else
      run new "$root" "$seed" "$w"
      run base "$base" "$seed" "$w"
    fi
  done
done

# merge SIDE: one record holding every run of that side, by workload.
merge() {
  jq -s '{machine: .[0].machine, seconds: .[0].seconds,
          runs: (reduce (.[].runs | to_entries[]) as $e ({}; .[$e.key] += $e.value))}' \
    "$tmp/$1"-*.json >"$tmp/$1.json"
}
merge base
merge new

status=0
bash benchmark/run.sh -compare "$tmp/base.json,$tmp/new.json" -compare-out cmp.json || status=1
if (( failed )); then
  echo "bench-compare: at least one run failed its checks" >&2
  status=1
fi
exit $status
