#!/bin/sh
# Alternating pairs of bench/stack runs, with the host's CPU steal per run.
#
#   bench/pairs.sh OLD_STACK_EXE NEW_STACK_EXE WORKLOAD SEED...
#
# OLD_STACK_EXE and NEW_STACK_EXE are built stack.exe binaries, normally
# <checkout>/_build/default/bench/stack/stack.exe of two checkouts built
# with `dune build --profile release bench/stack/stack.exe`. For every
# seed the two run once each, in turn; the first seed starts with OLD, the
# next with NEW, and so on, so neither side always runs first. Each run
# starts in its binary's checkout (the directory above `_build`), where
# the benchmark keeps its run directory.
#
# Every run prints one line:
#
#   <old|new> seed=<S> steal_pct=<P> <the run's JSON line>
#
# steal_pct is the share of all CPU time the hypervisor took from this
# host while the run lasted: the change of the `steal` field of the
# aggregate `cpu` line of /proc/stat over the change of the sum of its
# first eight fields (user to steal; guest time is already in user). A spread
# that follows steal is the host's, not the program's.
#
# After its line, each run prints its per-thread CPU, indented and
# labelled, one line per thread name from bench/threads.sh over the
# window from 40% to 70% of the run (6 s from 8 s in, at 20 s):
#
#     <old|new> <name> threads=<N> cpu_pct=<P> user_pct=<U> sys_pct=<S>
#
# so every pair carries the sender-N and conn-N CPU beside its numbers.
#
# SECONDS_PER_RUN (default 20) sets --seconds; the rest of the command
# line is the one BENCHMARK.json runs (--trace 0). A run that prints no
# JSON line reports `json=none` and its exit status.

set -u

if [ $# -lt 4 ]; then
  echo "usage: $0 OLD_STACK_EXE NEW_STACK_EXE WORKLOAD SEED..." >&2
  exit 2
fi

old=$1
new=$2
workload=$3
shift 3
seconds=${SECONDS_PER_RUN:-20}
threads=$(dirname "$0")/threads.sh
window_start=$(awk -v s="$seconds" 'BEGIN { print 0.4 * s }')
window_len=$(awk -v s="$seconds" 'BEGIN { print 0.3 * s }')
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for exe in "$old" "$new"; do
  if [ ! -x "$exe" ]; then
    echo "$0: $exe is not an executable" >&2
    exit 2
  fi
done

# The checkout a binary was built in: the directory that holds `_build`.
checkout() {
  d=$(cd "$(dirname "$1")" && pwd)
  while [ "$d" != / ] && [ "$(basename "$d")" != _build ]; do
    d=$(dirname "$d")
  done
  if [ "$d" = / ]; then
    dirname "$1"
  else
    dirname "$d"
  fi
}

# "<steal> <total>" jiffies from the aggregate cpu line.
cpu_times() {
  awk '$1 == "cpu" {
         t = 0
         for (i = 2; i <= 9 && i <= NF; i++) t += $i
         print $9, t
         exit
       }' /proc/stat
}

run_one() {
  label=$1
  exe=$2
  seed=$3
  dir=$(checkout "$exe")
  set -- $(cpu_times)
  s0=$1
  t0=$2
  (cd "$dir" && exec "$exe" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 >"$tmp/out" 2>&1) &
  pid=$!
  sleep "$window_start"
  "$threads" "$pid" "$window_len" >"$tmp/threads" 2>/dev/null || : >"$tmp/threads"
  wait "$pid"
  status=$?
  out=$(cat "$tmp/out")
  set -- $(cpu_times)
  steal=$(awk -v s="$(($1 - s0))" -v t="$(($2 - t0))" \
    'BEGIN { if (t > 0) printf "%.2f", 100 * s / t; else print "nan" }')
  json=$(printf '%s\n' "$out" | grep '^{' | tail -n 1)
  if [ -n "$json" ]; then
    echo "$label seed=$seed steal_pct=$steal $json"
  else
    echo "$label seed=$seed steal_pct=$steal json=none status=$status"
  fi
  sed "s/^/    $label /" "$tmp/threads"
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    run_one old "$old" "$seed"
    run_one new "$new" "$seed"
  else
    run_one new "$new" "$seed"
    run_one old "$old" "$seed"
  fi
  i=$((i + 1))
done
