(** Thread names, for per-thread CPU from [/proc/PID/task/*/{comm,stat}]
    ([bench/threads.sh]).

    Each domain the stack spawns names its own thread first thing:
    [shard-N], [merger] and [clock] in [Pipeline.Engine], [accept] and
    [conn-N] in [Net.Server], [sender-N] in [Net.Client], [replica] in
    [Net.Replica]. *)

val set : string -> unit
(** Name the calling thread ([prctl(PR_SET_NAME)]). Linux keeps the first
    15 bytes; on other systems this does nothing. *)
