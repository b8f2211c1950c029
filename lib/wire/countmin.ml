(* Payload: rows u32 | width u32 | family fingerprint i64 | n varint
   | rows × (k varint | k × (column gap varint, count varint)).

   Each row lists only its non-zero cells, in ascending column order: the
   column of a pair is the previous column + 1 + gap (the previous column
   starts at -1), and its count is > 0. A shard delta of a few hundred
   keys is a few hundred pairs instead of rows × width int64 cells. The
   form is canonical — one sketch, one byte string — which the replica's
   bit-for-bit convergence check relies on.

   The hash coins do not travel: the decoder brings its own family and the
   fingerprint proves the blob was built with the same one. *)

let kind = Codec.countmin_kind

let max_rows = 256
let max_width = 1 lsl 26

(* FNV-1a-64 over the family's shape and coefficients, 8 bytes per value.
   The hash is a local ref no closure captures, so it stays unboxed. *)
let compute_fingerprint family =
  match Hashing.Family.coefficients family with
  | None ->
      invalid_arg
        "Wire.Countmin: family has explicit or double-hashed rows and has no \
         serializable fingerprint"
  | Some coeffs ->
      let d = Array.length coeffs in
      let value i =
        if i = 0 then d
        else if i = 1 then Hashing.Family.width family
        else
          let a, b = coeffs.((i - 2) / 2) in
          if i land 1 = 0 then a else b
      in
      let h = ref 0xcbf29ce484222325L in
      for i = 0 to 1 + (2 * d) do
        let v = value i in
        for byte = 0 to 7 do
          h :=
            Int64.mul
              (Int64.logxor !h (Int64.of_int ((v lsr (8 * byte)) land 0xFF)))
              0x100000001b3L
        done
      done;
      !h

(* Every blob stamps or checks the fingerprint, and a process uses one
   family: the last one's fingerprint is kept, matched by physical
   equality (a family is immutable). A miss recomputes it, so a race
   between domains only costs a recomputation. *)
let last_fingerprint : (Hashing.Family.t * int64) option Atomic.t =
  Atomic.make None

let fingerprint family =
  match Atomic.get last_fingerprint with
  | Some (f, fp) when f == family -> fp
  | _ ->
      let fp = compute_fingerprint family in
      Atomic.set last_fingerprint (Some (family, fp));
      fp

(* ------------------------------ encode ------------------------------ *)

(* Blobs are written into one buffer per domain, grown to the largest
   blob written there, and leave it as one exact-size copy: the blob has
   to travel. [busy] sends a call that finds the buffer in use (another
   systhread of the same domain) to a fresh one. *)
type scratch = { mutable buf : Bytes.t; mutable busy : bool }

let scratch_key =
  Domain.DLS.new_key (fun () -> { buf = Bytes.create 4096; busy = false })

(* Room for [n] more bytes at [p]. *)
let reserve s p n =
  if p + n > Bytes.length s.buf then begin
    let buf = Bytes.create (max (2 * Bytes.length s.buf) (p + n)) in
    Bytes.blit s.buf 0 buf 0 p;
    s.buf <- buf
  end

let rec put_long buf p v =
  if v < 0 then invalid_arg "Wire.Codec.varint: negative";
  if v < 0x80 then begin
    Bytes.unsafe_set buf p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set buf p (Char.unsafe_chr (v land 0x7F lor 0x80));
    put_long buf (p + 1) (v lsr 7)
  end

(* [Codec.varint] at index [p], returning the index after it; the caller
   has reserved its at most 9 bytes. *)
let[@inline] put_varint buf p v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set buf p (Char.unsafe_chr v);
    p + 1
  end
  else put_long buf p v

(* A pair is at most two 9-byte varints. *)
let pair_max = 18

(* The payload after the frame header; returns its end. Each row's pair
   count comes first, from the sketch's occupancy count, and the row's
   occupancy words are then scanned in place: O(bitmap words + non-zero
   cells) per row, no closure. *)
let write s cm fp =
  let d = Sketches.Countmin.rows cm in
  let p = Codec.header_size in
  reserve s p (4 + 4 + 8 + 9);
  Bytes.set_int32_be s.buf p (Int32.of_int d);
  Bytes.set_int32_be s.buf (p + 4) (Int32.of_int (Sketches.Countmin.width cm));
  Bytes.set_int64_be s.buf (p + 8) fp;
  let p = ref (put_varint s.buf (p + 16) (Sketches.Countmin.updates cm)) in
  for row = 0 to d - 1 do
    let k = Sketches.Countmin.nonzero cm ~row in
    reserve s !p (9 + (k * pair_max));
    let buf = s.buf in
    let occ = Sketches.Countmin.occupancy cm ~row
    and cells = Sketches.Countmin.counters cm ~row in
    p := put_varint buf !p k;
    let prev = ref (-1) in
    for j = 0 to Array.length occ - 1 do
      let w = ref (Array.unsafe_get occ j) in
      while !w <> 0 do
        (* the run of one-byte pairs, with no call in the loop *)
        let run = ref true in
        while !run && !w <> 0 do
          let low = !w land (- !w) in
          let col = (j lsl 5) lor Sketches.Countmin.bit_index low in
          let gap = col - !prev - 1 and c = Array.unsafe_get cells col in
          if (gap lor c) lsr 7 = 0 then begin
            Bytes.unsafe_set buf !p (Char.unsafe_chr gap);
            Bytes.unsafe_set buf (!p + 1) (Char.unsafe_chr c);
            p := !p + 2;
            prev := col;
            w := !w lxor low
          end
          else run := false
        done;
        if !w <> 0 then begin
          let low = !w land (- !w) in
          let col = (j lsl 5) lor Sketches.Countmin.bit_index low in
          p := put_varint buf !p (col - !prev - 1);
          p := put_varint buf !p (Array.unsafe_get cells col);
          prev := col;
          w := !w lxor low
        end
      done
    done
  done;
  !p

let encode cm =
  let fp = fingerprint (Sketches.Countmin.family cm) in
  let s = Domain.DLS.get scratch_key in
  let s = if s.busy then { buf = Bytes.create 4096; busy = false } else s in
  s.busy <- true;
  match write s cm fp with
  | stop ->
      Codec.seal_into s.buf ~off:0 ~kind ~plen:(stop - Codec.header_size);
      s.busy <- false;
      Bytes.sub s.buf 0 stop
  | exception e ->
      s.busy <- false;
      raise e

(* ------------------------------- fold ------------------------------- *)

(* The header: dimensions and fingerprint must be the caller's family's,
   else the blob is Corrupt — a sketch from another seed or another shape
   never merges. Returns n. *)
let header ~family r =
  let d = Codec.read_u32 r in
  let w = Codec.read_u32 r in
  if d < 1 || d > max_rows then Codec.corrupt "rows %d outside [1, %d]" d max_rows;
  if w < 1 || w > max_width then Codec.corrupt "width %d outside [1, %d]" w max_width;
  let fd = Hashing.Family.rows family and fw = Hashing.Family.width family in
  if d <> fd || w <> fw then
    Codec.corrupt "dimensions %dx%d do not match the family's %dx%d" d w fd fw;
  let fp = Codec.read_i64 r and want = fingerprint family in
  if not (Int64.equal fp want) then
    Codec.corrupt "family fingerprint %016Lx does not match %016Lx" fp want;
  Codec.read_varint r

(* The cell walks keep their position in a local. Nearly every pair is
   two one-byte varints: an inner loop takes the run of such pairs with no
   call in it, so its locals stay in registers. Any other pair, and any
   pair a rule rejects, goes through [varint], whose longer varints the
   reader reads, checks and rejects exactly as a reader-driven walk would.
   A value below 0x80 was one byte (the reader accepts only canonical
   varints), so [after] knows where the next one starts. *)
let varint_long r p =
  Codec.set_cursor r p;
  Codec.read_varint r

let[@inline] varint r buf ~limit p =
  if p < limit then
    let b = Char.code (Bytes.unsafe_get buf p) in
    if b < 0x80 then b else varint_long r p
  else varint_long r p

let[@inline] after r p v = if v < 0x80 then p + 1 else Codec.cursor r

let[@inline] byte buf p = Char.code (Bytes.unsafe_get buf p)

(* Walk the cell section checking every rule of the form, so a walk that
   returns has validated the whole section, and leave [r] at its end. *)
let check_cells r ~rows ~width =
  let buf = Codec.buffer r and limit = Codec.limit r in
  let p = ref (Codec.cursor r) in
  for row = 0 to rows - 1 do
    let k = varint r buf ~limit !p in
    p := after r !p k;
    if k > width then
      Codec.corrupt "row %d lists %d non-zero cells in width %d" row k width;
    let prev = ref (-1) and i = ref 0 in
    while !i < k do
      let run = ref true in
      while !run && !i < k do
        let q = !p in
        if q + 1 < limit then begin
          let gap = byte buf q and c = byte buf (q + 1) in
          if gap lor c < 0x80 && c <> 0 && gap < width - 1 - !prev then begin
            prev := !prev + 1 + gap;
            p := q + 2;
            incr i
          end
          else run := false
        end
        else run := false
      done;
      if !i < k then begin
        let gap = varint r buf ~limit !p in
        p := after r !p gap;
        if gap >= width - 1 - !prev then
          Codec.corrupt "row %d: column gap %d runs past width %d" row gap width;
        let col = !prev + 1 + gap in
        let c = varint r buf ~limit !p in
        p := after r !p c;
        if c = 0 then Codec.corrupt "row %d col %d: explicit zero count" row col;
        prev := col;
        incr i
      end
    done
  done;
  Codec.set_cursor r !p

(* The second walk, from [start] over a section [check_cells] accepted: it
   only adds, to cells that walk proved in range. *)
let add_cells r ~start ~rows acc =
  let buf = Codec.buffer r and limit = Codec.limit r in
  let p = ref start in
  for row = 0 to rows - 1 do
    let k = varint r buf ~limit !p in
    p := after r !p k;
    let col = ref (-1) and i = ref 0 in
    while !i < k do
      let run = ref true in
      while !run && !i < k do
        let q = !p in
        if q + 1 < limit then begin
          let gap = byte buf q and c = byte buf (q + 1) in
          if gap lor c < 0x80 then begin
            col := !col + 1 + gap;
            Sketches.Countmin.unsafe_add acc ~row ~col:!col c;
            p := q + 2;
            incr i
          end
          else run := false
        end
        else run := false
      done;
      if !i < k then begin
        let gap = varint r buf ~limit !p in
        p := after r !p gap;
        col := !col + 1 + gap;
        let c = varint r buf ~limit !p in
        p := after r !p c;
        Sketches.Countmin.unsafe_add acc ~row ~col:!col c;
        incr i
      end
    done
  done

let fold ~family blob =
  let rows = Hashing.Family.rows family
  and width = Hashing.Family.width family in
  Codec.decode ~kind
    (fun r ->
      let n = header ~family r in
      let start = Codec.cursor r in
      check_cells r ~rows ~width;
      fun acc ->
        if not (Hashing.Family.compatible family (Sketches.Countmin.family acc))
        then invalid_arg "Wire.Countmin.fold: accumulator has another family";
        add_cells r ~start ~rows acc;
        Sketches.Countmin.add_updates acc n)
    blob

let decode ~family blob =
  Result.map
    (fun apply ->
      let cm = Sketches.Countmin.create ~family in
      apply cm;
      cm)
    (fold ~family blob)
