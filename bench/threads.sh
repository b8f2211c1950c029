#!/bin/sh
# CPU per thread name of a running process, over a window.
#
#   bench/threads.sh PID SECONDS
#
# Samples /proc/PID/task/*/stat twice, SECONDS apart, and prints one line
# per thread name (/proc/PID/task/TID/comm), busiest first:
#
#   <name> threads=<N> cpu_pct=<P> user_pct=<U> sys_pct=<S>
#
# cpu_pct is utime + stime (fields 14 and 15 of stat) over the window, as
# a percentage of one CPU: 100 is one core kept busy. Threads that share a
# name are summed (threads=N says how many); a thread that started inside
# the window counts from 0, one that ended inside it is left out. The
# stack names its threads (Obs.Thread_name): shard-N, merger, clock,
# accept, conn-N, sender-N, replica; a thread it did not name carries the
# executable's name. A last line gives the whole process.

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PID SECONDS" >&2
  exit 2
fi

pid=$1
seconds=$2

if [ ! -d "/proc/$pid/task" ]; then
  echo "$0: no process $pid" >&2
  exit 2
fi

# "<tid> <name> <utime> <stime>" per live thread. The name sits in
# parentheses in stat and may hold spaces, so fields are counted after
# the last ')'; comm gives the name itself.
sample() {
  for d in /proc/"$pid"/task/*; do
    tid=${d##*/}
    name=$(cat "$d/comm" 2>/dev/null) || continue
    stat=$(cat "$d/stat" 2>/dev/null) || continue
    rest=${stat##*) }
    # rest starts at field 3 (state): utime is field 14, stime field 15
    set -- $rest
    shift 11
    echo "$tid $(printf '%s' "$name" | tr ' ' '_') $1 $2"
  done
}

hz=$(getconf CLK_TCK)
before=$(sample)
sleep "$seconds"
after=$(sample)

printf '%s\n---\n%s\n' "$before" "$after" | awk -v hz="$hz" -v s="$seconds" '
  $0 == "---" { second = 1; next }
  !second { u0[$1] = $3; s0[$1] = $4; next }
  {
    du = $3 - ($1 in u0 ? u0[$1] : 0)
    ds = $4 - ($1 in s0 ? s0[$1] : 0)
    n[$2]++; u[$2] += du; k[$2] += ds
    n["TOTAL"]++; u["TOTAL"] += du; k["TOTAL"] += ds
  }
  END {
    f = 100 / (hz * s)
    for (name in n)
      printf "%s threads=%d cpu_pct=%.1f user_pct=%.1f sys_pct=%.1f\n",
        name, n[name], (u[name] + k[name]) * f, u[name] * f, k[name] * f
  }' | sort -t= -k3 -rn | awk '/^TOTAL / { total = $0; next } { print } END { print total }'
