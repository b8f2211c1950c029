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
let fingerprint family =
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

(* Each row's pair count comes first, from the sketch's occupancy count,
   so the pairs are written straight into the frame as the row's walk
   meets them: O(non-zero cells) per row, no intermediate buffer. *)
let encode cm =
  let fp = fingerprint (Sketches.Countmin.family cm) in
  let d = Sketches.Countmin.rows cm and w = Sketches.Countmin.width cm in
  Codec.encode ~kind (fun b ->
      Codec.u32 b d;
      Codec.u32 b w;
      Codec.i64 b fp;
      Codec.varint b (Sketches.Countmin.updates cm);
      for row = 0 to d - 1 do
        Codec.varint b (Sketches.Countmin.nonzero cm ~row);
        let prev = ref (-1) in
        Sketches.Countmin.iter_row cm ~row (fun col c ->
            Codec.varint b (col - !prev - 1);
            Codec.varint b c;
            prev := col)
      done)

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

(* Walk the cell section checking every rule of the form, so a walk that
   returns has validated the whole section. *)
let check_cells r ~rows ~width =
  for row = 0 to rows - 1 do
    let k = Codec.read_varint r in
    if k > width then
      Codec.corrupt "row %d lists %d non-zero cells in width %d" row k width;
    let prev = ref (-1) in
    for _ = 1 to k do
      let gap = Codec.read_varint r in
      if gap >= width - 1 - !prev then
        Codec.corrupt "row %d: column gap %d runs past width %d" row gap width;
      let col = !prev + 1 + gap in
      if Codec.read_varint r = 0 then
        Codec.corrupt "row %d col %d: explicit zero count" row col;
      prev := col
    done
  done

(* The second walk, over a section [check_cells] accepted: it only adds. *)
let add_cells r ~rows acc =
  for row = 0 to rows - 1 do
    let col = ref (-1) in
    for _ = 1 to Codec.read_varint r do
      col := !col + 1 + Codec.read_varint r;
      Sketches.Countmin.add acc ~row ~col:!col (Codec.read_varint r)
    done
  done

let fold ~family blob =
  let rows = Hashing.Family.rows family
  and width = Hashing.Family.width family in
  Codec.decode ~kind
    (fun r ->
      let n = header ~family r in
      let start = Codec.position r in
      check_cells r ~rows ~width;
      fun acc ->
        if not (Hashing.Family.compatible family (Sketches.Countmin.family acc))
        then invalid_arg "Wire.Countmin.fold: accumulator has another family";
        Codec.seek r start;
        add_cells r ~rows acc;
        Sketches.Countmin.add_updates acc n)
    blob

let decode ~family blob =
  Result.map
    (fun apply ->
      let cm = Sketches.Countmin.create ~family in
      apply cm;
      cm)
    (fold ~family blob)
