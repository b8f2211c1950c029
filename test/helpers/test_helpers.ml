(** Shared constructors for int-typed histories used across the test suite.

    Operations are over quantitative objects with integer update arguments,
    integer query arguments, and integer return values — the shape of both
    the batched counter (query argument ignored) and CountMin (argument =
    element). *)

type iop = (int, int, int) Hist.Op.t
type ievent = (int, int, int) Hist.History.event
type ihistory = (int, int, int) Hist.History.t

let upd ?(proc = 0) ?(obj = 0) ~id u : iop =
  { Hist.Op.id; proc; obj; kind = Hist.Op.Update u; ret = None }

let qry ?(proc = 0) ?(obj = 0) ?ret ~id q : iop =
  { Hist.Op.id; proc; obj; kind = Hist.Op.Query q; ret }

let inv op : ievent = Hist.History.inv op

let rsp ?ret op : ievent = Hist.History.rsp ?ret op

let hist evs : ihistory = Hist.History.of_events evs

(* A sequential history from (op, optional return) pairs. *)
let seq ops : ihistory = Hist.History.of_sequential_ops ops

let pp_int = Format.pp_print_int

let show_history h =
  Format.asprintf "%a" (Hist.History.pp ~pp_u:pp_int ~pp_q:pp_int ~pp_v:pp_int) h

(* Random well-formed concurrent history generator: interleaves per-process
   sequential operation streams under a seeded scheduler. [mk_op ~proc ~id]
   supplies the operations, so each test controls the op/return mix. *)
let gen_history ~seed ~procs ~per_proc ~mk_op =
  let g = Rng.Splitmix.create seed in
  let next_id = ref 0 in
  let queues =
    Array.init procs (fun p ->
        ref
          (List.init per_proc (fun _ ->
               incr next_id;
               mk_op g ~proc:p ~id:!next_id)))
  in
  let in_flight = Array.make procs None in
  let events = ref [] in
  let rec drain () =
    let busy = ref [] in
    for p = procs - 1 downto 0 do
      if in_flight.(p) <> None || !(queues.(p)) <> [] then busy := p :: !busy
    done;
    match !busy with
    | [] -> ()
    | ps ->
        let p = List.nth ps (Rng.Splitmix.next_int g (List.length ps)) in
        (match in_flight.(p) with
        | Some op ->
            events := Hist.History.rsp ?ret:op.Hist.Op.ret op :: !events;
            in_flight.(p) <- None
        | None -> (
            match !(queues.(p)) with
            | [] -> ()
            | op :: rest ->
                queues.(p) := rest;
                events := Hist.History.inv op :: !events;
                in_flight.(p) <- Some op));
        drain ()
  in
  drain ();
  Hist.History.of_events (List.rev !events)

(* The standard counter-history mix used by several suites: random batches,
   random (sometimes impossible) query returns. *)
let gen_counter_history seed =
  let g0 = Rng.Splitmix.create seed in
  let procs = 1 + Rng.Splitmix.next_int g0 3 in
  let per_proc = 1 + Rng.Splitmix.next_int g0 3 in
  gen_history ~seed:(Rng.Splitmix.next_int64 g0) ~procs ~per_proc
    ~mk_op:(fun g ~proc ~id ->
      if Rng.Splitmix.next_bool g then upd ~proc ~id (Rng.Splitmix.next_int g 4)
      else qry ~proc ~ret:(Rng.Splitmix.next_int g 8) ~id 0)

(* A CountMin wire blob written field by field: [Wire.Codec.encode] frames
   it, so the checksum holds and only the payload schema can reject it.
   [cells] writes the per-row section; header fields default to [family]'s
   own, and each may be forged. *)
let countmin_blob ~family ?(fingerprint = Wire.Countmin.fingerprint family)
    ?(rows = Hashing.Family.rows family) ?(width = Hashing.Family.width family)
    ?(n = 0) cells =
  Wire.Codec.encode ~kind:Wire.Codec.countmin_kind (fun b ->
      Wire.Codec.u32 b rows;
      Wire.Codec.u32 b width;
      Wire.Codec.i64 b fingerprint;
      Wire.Codec.varint b n;
      cells b)

(* One row of the cell section: its pair count, then (column gap, count)
   pairs. *)
let countmin_row b pairs =
  Wire.Codec.varint b (List.length pairs);
  List.iter
    (fun (gap, count) ->
      Wire.Codec.varint b gap;
      Wire.Codec.varint b count)
    pairs

(* A delta that passes the frame checksum, the dimensions and the
   fingerprint, whose every row but the last is valid: the last row's
   only cell has an explicit zero count. A fold must reject it whole. *)
let countmin_bad_last_row ~family =
  let d = Hashing.Family.rows family in
  countmin_blob ~family ~n:1 (fun b ->
      for _ = 1 to d - 1 do
        countmin_row b [ (3, 1) ]
      done;
      countmin_row b [ (3, 0) ])

(* The golden pins' input: 512 fixed keys, negatives included, hashed by
   the stack's deployment family (seed 49, 4 x 2048). The pinned columns
   and blob were captured before the field multiply was rewritten; logs,
   checkpoints and the replica's bit-for-bit check need them unchanged. *)
let golden_keys = Array.init 512 (fun i -> ((i - 256) * 0x9E3779B97F4A7C1) + i)

let golden_family () = Hashing.Family.seeded ~seed:49L ~rows:4 ~width:2048

(* The checksum of wire versions 1 and 2: FNV-1a-32 one byte at a time. *)
let fnv1a_v2 bytes ~off ~len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.get bytes i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

(* Rewrite the frame at [off] in [b] as the same payload under wire
   version [v] (1 or 2): the version byte and that version's checksum.
   Returns the frame's length. *)
let reframe_old ~v b ~off =
  let plen = Int32.to_int (Bytes.get_int32_be b (off + 6)) land 0xFFFFFFFF in
  Bytes.set_uint8 b (off + 4) v;
  Bytes.set_int32_be b (off + 10)
    (Int32.of_int (fnv1a_v2 b ~off:(off + Wire.Codec.header_size) ~len:plen));
  Wire.Codec.header_size + plen

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* The frames and tail of the segment file at [path], read with
   [Wire.Segment.iter]. *)
let read_segment path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let frames = ref [] in
      let tail = Wire.Segment.iter ic (fun f -> frames := f :: !frames) in
      (List.rev !frames, tail))
