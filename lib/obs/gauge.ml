(* A float array is a flat no-scan block, so Padding.copy cannot pad it —
   instead the array pads itself: 24 unboxed slots span three-plus cache
   lines, and the hot word in the middle (slot 8) sits at least 64 bytes
   from either edge, whatever the allocator's line phase. *)

type t = float array

let hot = 8

let create () = Array.make 24 0.0

let set (t : t) v = Array.unsafe_set t hot v
let read (t : t) = Array.unsafe_get t hot
