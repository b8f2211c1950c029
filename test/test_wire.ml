(* Wire codec tests: every codec round-trips losslessly (encode ∘ decode =
   identity on the sketch state), and every corrupted frame — truncated,
   bit-flipped, wrong magic, wrong kind, future version, random garbage —
   decodes to [Error], never an exception. *)

let seed = 99L

(* ------------------------- builders ------------------------- *)

let cm_family = Hashing.Family.seeded ~seed ~rows:3 ~width:32

let cm_of xs =
  let t = Sketches.Countmin.create ~family:cm_family in
  List.iter (Sketches.Countmin.update t) xs;
  t

let kmv_of xs =
  let t = Sketches.Kmv.create ~k:16 ~seed () in
  List.iter (Sketches.Kmv.update t) xs;
  t

let counter_of xs =
  let t = Sketches.Batched_counter.create () in
  List.iter (fun x -> Sketches.Batched_counter.update t (abs x)) xs;
  t

let sample = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 9; 7; 9; 3; 2; 3; 8; 4 ]

(* ------------------------- equality ------------------------- *)

let cm_equal a b =
  Sketches.Countmin.updates a = Sketches.Countmin.updates b
  && Hashing.Family.compatible (Sketches.Countmin.family a)
       (Sketches.Countmin.family b)
  &&
  let rows = Sketches.Countmin.rows a and width = Sketches.Countmin.width a in
  rows = Sketches.Countmin.rows b
  && width = Sketches.Countmin.width b
  &&
  let ok = ref true in
  for r = 0 to rows - 1 do
    for c = 0 to width - 1 do
      if
        Sketches.Countmin.cell a ~row:r ~col:c
        <> Sketches.Countmin.cell b ~row:r ~col:c
      then ok := false
    done
  done;
  !ok

let kmv_equal a b =
  Sketches.Kmv.k a = Sketches.Kmv.k b
  && Sketches.Kmv.seed a = Sketches.Kmv.seed b
  && Sketches.Kmv.hashes a = Sketches.Kmv.hashes b

let counter_equal a b =
  Sketches.Batched_counter.read a = Sketches.Batched_counter.read b

(* One row per codec: build from an int list, encode, decode, compare. The
   [decode_any] column drives the corruption sweeps below. *)
type codec = {
  label : string;
  kind : string; (* the wire kind name, as [Wire.Codec.kind_name] spells it *)
  blob_of : int list -> Bytes.t;
  roundtrips : int list -> bool;
  decode_any : Bytes.t -> (unit, Wire.Codec.error) result;
}

let check_rt eq dec blob v =
  match dec blob with Ok v' -> eq v v' | Error _ -> false

let codecs =
  [
    {
      label = "countmin";
      kind = "countmin";
      blob_of = (fun xs -> Wire.Countmin.encode (cm_of xs));
      roundtrips =
        (fun xs ->
          let v = cm_of xs in
          check_rt cm_equal
            (Wire.Countmin.decode ~family:cm_family)
            (Wire.Countmin.encode v) v);
      decode_any =
        (fun b ->
          Result.map (fun _ -> ()) (Wire.Countmin.decode ~family:cm_family b));
    };
    {
      label = "kmv";
      kind = "kmv";
      blob_of = (fun xs -> Wire.Kmv.encode (kmv_of xs));
      roundtrips =
        (fun xs ->
          let v = kmv_of xs in
          check_rt kmv_equal Wire.Kmv.decode (Wire.Kmv.encode v) v);
      decode_any = (fun b -> Result.map (fun _ -> ()) (Wire.Kmv.decode b));
    };
    {
      label = "counter";
      kind = "counter";
      blob_of = (fun xs -> Wire.Counter.encode (counter_of xs));
      roundtrips =
        (fun xs ->
          let v = counter_of xs in
          check_rt counter_equal Wire.Counter.decode (Wire.Counter.encode v) v);
      decode_any = (fun b -> Result.map (fun _ -> ()) (Wire.Counter.decode b));
    };
  ]

(* ------------------------- round trips ------------------------- *)

let test_roundtrip_sample () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.label ^ " round-trips") true (c.roundtrips sample))
    codecs

let test_roundtrip_empty () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.label ^ " empty round-trips") true (c.roundtrips []))
    codecs

let test_peek () =
  List.iter
    (fun c ->
      match Wire.Codec.peek (c.blob_of sample) with
      | Ok (kind, v) ->
          Alcotest.(check string) (c.label ^ " peek kind") c.kind kind;
          Alcotest.(check int) (c.label ^ " peek version") Wire.Codec.version v
      | Error e -> Alcotest.failf "peek %s: %s" c.label (Wire.Codec.error_to_string e))
    codecs

(* ------------------------- corruption ------------------------- *)

(* Never raises, and (for the sweeps below) never silently succeeds. *)
let expect_error ~what c blob =
  match c.decode_any blob with
  | Ok () -> Alcotest.failf "%s %s: decoded successfully" c.label what
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "%s %s: raised %s" c.label what (Printexc.to_string e)

let test_truncation () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      for len = 0 to Bytes.length blob - 1 do
        expect_error ~what:(Printf.sprintf "truncated to %d" len) c
          (Bytes.sub blob 0 len)
      done)
    codecs

let test_bit_flips () =
  (* Every single-bit corruption of a valid frame must be rejected: header
     flips hit the magic/version/kind/length validation, payload flips hit
     the checksum, checksum flips mismatch the payload. *)
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      for byte = 0 to Bytes.length blob - 1 do
        for bit = 0 to 7 do
          let b = Bytes.copy blob in
          Bytes.set b byte
            (Char.chr (Char.code (Bytes.get blob byte) lxor (1 lsl bit)));
          expect_error ~what:(Printf.sprintf "bit %d of byte %d flipped" bit byte)
            c b
        done
      done)
    codecs

let test_wrong_magic () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      Bytes.blit_string "XXXX" 0 blob 0 4;
      match c.decode_any blob with
      | Error Wire.Codec.Bad_magic -> ()
      | Error e ->
          Alcotest.failf "%s wrong magic: expected Bad_magic, got %s" c.label
            (Wire.Codec.error_to_string e)
      | Ok () -> Alcotest.failf "%s wrong magic decoded" c.label)
    codecs

let test_future_version () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      Bytes.set blob 4 (Char.chr 99);
      match c.decode_any blob with
      | Error (Wire.Codec.Unsupported_version 99) -> ()
      | Error e ->
          Alcotest.failf "%s version 99: expected Unsupported_version, got %s"
            c.label
            (Wire.Codec.error_to_string e)
      | Ok () -> Alcotest.failf "%s version 99 decoded" c.label)
    codecs

let test_wrong_kind () =
  (* A valid counter blob offered to every other codec: precise Wrong_kind. *)
  let counter_blob = Wire.Counter.encode (counter_of sample) in
  List.iter
    (fun c ->
      if c.label <> "counter" then
        match c.decode_any counter_blob with
        | Error (Wire.Codec.Wrong_kind { expected; got }) ->
            Alcotest.(check string) (c.label ^ " expected kind") c.kind expected;
            Alcotest.(check string) (c.label ^ " got kind") "counter" got
        | Error e ->
            Alcotest.failf "%s on counter blob: expected Wrong_kind, got %s"
              c.label
              (Wire.Codec.error_to_string e)
        | Ok () -> Alcotest.failf "%s decoded a counter blob" c.label)
    codecs

let test_trailing_garbage () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      let b = Bytes.extend blob 0 3 in
      expect_error ~what:"3 trailing bytes" c b)
    codecs

(* ------------------------- properties ------------------------- *)

let qcheck_tests =
  let elems = QCheck.(list_of_size (Gen.int_range 0 300) (int_bound 50)) in
  let never_raises c blob =
    match c.decode_any blob with Ok () | Error _ -> true
  in
  List.map QCheck_alcotest.to_alcotest
    (List.map
       (fun c ->
         QCheck.Test.make
           ~name:(c.label ^ " round-trips any stream")
           ~count:60 elems c.roundtrips)
       codecs
    @ [
        QCheck.Test.make ~name:"random bytes never raise" ~count:200
          QCheck.(string_of_size (Gen.int_range 0 64))
          (fun s ->
            let blob = Bytes.of_string s in
            List.for_all (fun c -> never_raises c blob) codecs);
        QCheck.Test.make ~name:"random prefix damage never raises" ~count:100
          QCheck.(pair elems (int_bound 1000))
          (fun (xs, cut) ->
            List.for_all
              (fun c ->
                let blob = c.blob_of xs in
                let len = min cut (Bytes.length blob) in
                never_raises c (Bytes.sub blob 0 len))
              codecs);
      ])

(* ------------------------- countmin sparse form ------------------------- *)

(* The CountMin payload carries no coins, only a fingerprint, and lists only
   non-zero cells; these pin down that every malformed payload is Corrupt
   (never a misparsed sketch) and that the form is canonical. *)

let cm_decode = Wire.Countmin.decode ~family:cm_family
let cm_blob = Test_helpers.countmin_blob ~family:cm_family
let cm_row = Test_helpers.countmin_row
let cm_width = Hashing.Family.width cm_family

(* n = 1: one cell per row, each in column 0. *)
let one_per_row b =
  for _ = 1 to Hashing.Family.rows cm_family do
    cm_row b [ (0, 1) ]
  done

let expect_corrupt what blob =
  match cm_decode blob with
  | Error (Wire.Codec.Corrupt _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Corrupt, got %s" what
        (Wire.Codec.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: decoded" what
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let test_cm_negative_controls () =
  (match cm_decode (cm_blob ~n:1 one_per_row) with
  | Ok cm ->
      Alcotest.(check int) "control: n" 1 (Sketches.Countmin.updates cm);
      Alcotest.(check int) "control: cell" 1 (Sketches.Countmin.cell cm ~row:2 ~col:0)
  | Error e -> Alcotest.failf "control blob: %s" (Wire.Codec.error_to_string e));
  let other ~seed ~rows ~width =
    let t =
      Sketches.Countmin.create ~family:(Hashing.Family.seeded ~seed ~rows ~width)
    in
    List.iter (Sketches.Countmin.update t) sample;
    Wire.Countmin.encode t
  in
  expect_corrupt "sketch from another seed" (other ~seed:100L ~rows:3 ~width:32);
  (match cm_decode (other ~seed:100L ~rows:3 ~width:32) with
  | Error (Wire.Codec.Corrupt msg) ->
      Alcotest.(check bool) "names the fingerprint" true
        (Test_helpers.contains msg "fingerprint")
  | _ -> ());
  expect_corrupt "forged fingerprint"
    (cm_blob ~fingerprint:(Wire.Countmin.fingerprint (Hashing.Family.seeded ~seed:7L ~rows:3 ~width:32))
       ~n:1 one_per_row);
  expect_corrupt "more rows" (other ~seed ~rows:4 ~width:32);
  expect_corrupt "wider" (other ~seed ~rows:3 ~width:64);
  expect_corrupt "header claims 4 rows" (cm_blob ~rows:4 ~n:1 one_per_row);
  expect_corrupt "header claims width 64" (cm_blob ~width:64 ~n:1 one_per_row);
  expect_corrupt "column = width"
    (cm_blob ~n:1 (fun b ->
         cm_row b [ (cm_width, 1) ];
         cm_row b [ (0, 1) ];
         cm_row b [ (0, 1) ]));
  expect_corrupt "gaps run past the width"
    (cm_blob ~n:2 (fun b ->
         cm_row b [ (20, 1); (11, 1) ];
         cm_row b [ (0, 2) ];
         cm_row b [ (0, 2) ]));
  expect_corrupt "gap that would overflow"
    (cm_blob ~n:2 (fun b ->
         cm_row b [ (5, 1); (max_int, 1) ];
         cm_row b [ (0, 2) ];
         cm_row b [ (0, 2) ]));
  expect_corrupt "explicit zero count"
    (cm_blob ~n:1 (fun b ->
         cm_row b [ (0, 1) ];
         cm_row b [ (0, 1); (4, 0) ];
         cm_row b [ (0, 1) ]));
  expect_corrupt "row lists more cells than the width"
    (cm_blob ~n:1 (fun b ->
         cm_row b (List.init (cm_width + 1) (fun _ -> (0, 1)));
         cm_row b [ (0, 1) ];
         cm_row b [ (0, 1) ]));
  let raw_first_count bytes b =
    (* the first row's pair count written by hand, then one valid pair *)
    Buffer.add_string b bytes;
    Wire.Codec.varint b 0;
    Wire.Codec.varint b 1;
    cm_row b [ (0, 1) ];
    cm_row b [ (0, 1) ]
  in
  Alcotest.(check bool) "control: hand-written varint 1" true
    (Result.is_ok (cm_decode (cm_blob ~n:1 (raw_first_count "\x01"))));
  expect_corrupt "overlong varint (zero final group)"
    (cm_blob ~n:1 (raw_first_count "\x81\x00"));
  expect_corrupt "overlong varint (10 bytes)"
    (cm_blob ~n:1 (raw_first_count "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x00"));
  expect_corrupt "varint past the native range"
    (cm_blob ~n:1 (raw_first_count "\x81\x80\x80\x80\x80\x80\x80\x80\x40"))

(* The codec's fast paths (a one-byte varint read, a checksum masked once)
   must reject exactly what the checked walks rejected, through the fold
   the served paths run as well as through decode. *)
let expect_both what want blob =
  let show = function
    | Ok _ -> "Ok"
    | Error e -> Wire.Codec.error_to_string e
  in
  let fold = Wire.Countmin.fold ~family:cm_family blob
  and dec = cm_decode blob in
  List.iter
    (fun (path, r) ->
      match r with
      | Error e when want e -> ()
      | r -> Alcotest.failf "%s via %s: got %s" what path (show r))
    [ ("fold", Result.map ignore fold); ("decode", Result.map ignore dec) ]

let is_truncated = function Wire.Codec.Truncated _ -> true | _ -> false
let is_corrupt = function Wire.Codec.Corrupt _ -> true | _ -> false

let test_cm_varint_edges () =
  (* the first row's only pair, with its count written by hand *)
  let raw_count bytes b =
    Wire.Codec.varint b 1;
    Wire.Codec.varint b 0;
    Buffer.add_string b bytes
  in
  let rest b =
    cm_row b [ (0, 1) ];
    cm_row b [ (0, 1) ]
  in
  (match
     Wire.Countmin.fold ~family:cm_family
       (cm_blob ~n:1 (fun b -> raw_count "\x81\x01" b; rest b))
   with
  | Ok apply ->
      let acc = Sketches.Countmin.create ~family:cm_family in
      apply acc;
      Alcotest.(check int) "control: two-byte count" 129
        (Sketches.Countmin.cell acc ~row:0 ~col:0)
  | Error e -> Alcotest.failf "control: %s" (Wire.Codec.error_to_string e));
  expect_both "two-byte count cut at the payload's end" is_truncated
    (cm_blob ~n:1 (raw_count "\x81"));
  expect_both "nine-byte count cut at the payload's end" is_truncated
    (cm_blob ~n:1 (raw_count "\x81\x80\x80\x80\x80\x80\x80\x80"));
  expect_both "payload ends where a varint should start" is_truncated
    (cm_blob ~n:1 (fun b -> Wire.Codec.varint b 1; Wire.Codec.varint b 0));
  expect_both "zero final group" is_corrupt
    (cm_blob ~n:1 (fun b -> raw_count "\x81\x00" b; rest b));
  expect_both "more than 9 groups" is_corrupt
    (cm_blob ~n:1 (fun b ->
         raw_count "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x01" b;
         rest b));
  expect_both "past the native range" is_corrupt
    (cm_blob ~n:1 (fun b ->
         raw_count "\x81\x80\x80\x80\x80\x80\x80\x80\x40" b;
         rest b));
  expect_both "overlong stream length" is_corrupt
    (Wire.Codec.encode ~kind:Wire.Countmin.kind (fun b ->
         Wire.Codec.u32 b (Hashing.Family.rows cm_family);
         Wire.Codec.u32 b cm_width;
         Wire.Codec.i64 b (Wire.Countmin.fingerprint cm_family);
         Buffer.add_string b "\x80\x00";
         one_per_row b))

(* Version 3's checksum spelled out: 32-bit little-endian words assembled
   byte by byte and folded, word k of the first [len - len mod 8] bytes
   stepped into lane [k mod 2], every step masked; then the two lanes
   stepped, in order, into a fresh FNV-1a state, then each remaining byte. *)
let fnv1a_reference bytes ~off ~len =
  let step h w = (h lxor w) * 0x01000193 land 0xFFFFFFFF in
  let byte i = Char.code (Bytes.get bytes i) in
  let fold w = w lxor (w lsr 2) lxor (w lsr 11) lxor (w lsr 17) in
  let word k =
    let p = off + (4 * k) in
    fold
      (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16) lor (byte (p + 3) lsl 24))
  in
  let basis = 0x811c9dc5 in
  let lanes = [| basis; basis |] in
  let words = 2 * (len / 8) in
  for k = 0 to words - 1 do
    lanes.(k mod 2) <- step lanes.(k mod 2) (word k)
  done;
  let h = ref (step (step basis lanes.(0)) lanes.(1)) in
  for i = off + (4 * words) to off + len - 1 do
    h := step !h (byte i)
  done;
  !h

let test_fnv1a () =
  let g = Rng.Splitmix.create 3L in
  let b = Bytes.init 4096 (fun _ -> Char.chr (Rng.Splitmix.next_int g 256)) in
  let small = List.concat_map (fun off -> List.init 68 (fun len -> (off, len))) (List.init 8 Fun.id) in
  List.iter
    (fun (off, len) ->
      Alcotest.(check int)
        (Printf.sprintf "off %d len %d" off len)
        (fnv1a_reference b ~off ~len)
        (Wire.Codec.fnv1a b ~off ~len))
    (small @ [ (0, 0); (0, 1); (0, 4096); (17, 1000); (4095, 1); (4096, 0) ]);
  List.iter
    (fun (off, len) ->
      match Wire.Codec.fnv1a b ~off ~len with
      | _ -> Alcotest.failf "off %d len %d: no Invalid_argument" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, 4097); (4096, 1); (4000, 97); (0, -1); (4097, 0) ]

(* The checksum's guarantee: an error confined to one 32-bit word of the
   lanes, or to one tail byte, always changes it. [pick] chooses the word
   or byte, [mask] the non-zero error; the payload sits at [off] inside a
   larger buffer. *)
let checksum_error_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"checksum catches any one-word or tail-byte error"
       ~count:2000
       QCheck.(
         quad (string_of_size Gen.(int_range 1 80)) (int_bound 7) small_nat
           (int_range 1 0xFFFFFFFF))
       (fun (s, off, pick, mask) ->
         let len = String.length s in
         let b = Bytes.make (off + len + 3) '\x5a' in
         Bytes.blit_string s 0 b off len;
         let before = Wire.Codec.fnv1a b ~off ~len in
         let words = 2 * (len / 8) and tail = len mod 8 in
         if words > 0 && (tail = 0 || pick land 1 = 0) then begin
           let p = off + (4 * (pick / 2 mod words)) in
           for j = 0 to 3 do
             Bytes.set_uint8 b (p + j)
               (Bytes.get_uint8 b (p + j) lxor ((mask lsr (8 * j)) land 0xFF))
           done
         end
         else begin
           let p = off + (4 * words) + (pick / 2 mod tail) in
           Bytes.set_uint8 b p (Bytes.get_uint8 b p lxor (1 + (mask mod 255)))
         end;
         Wire.Codec.fnv1a b ~off ~len <> before))

(* Errors in two words, which a multiply chain mod 2^32 sees only in the
   bits it carries into: a multiply never carries downward, so without the
   fold a flip of bit 31 in any two words cancels, and errors confined to
   words' top bytes are checked by the top byte alone. Every pair of words
   of a 64-byte payload, both at lane-aligned and odd offsets: the same bit
   flipped in both (bit 31 among them), and the same non-zero top byte
   error in both. *)
let test_checksum_two_word_errors () =
  let g = Rng.Splitmix.create 11L in
  let len = 64 in
  let words = len / 4 in
  List.iter
    (fun off ->
      let b = Bytes.init (off + len) (fun _ -> Char.chr (Rng.Splitmix.next_int g 256)) in
      let sum = Wire.Codec.fnv1a b ~off ~len in
      let xor_word k e =
        let p = off + (4 * k) in
        Bytes.set_int32_le b p (Int32.logxor (Bytes.get_int32_le b p) (Int32.of_int e))
      in
      let missed = ref [] in
      let check i j e =
        xor_word i e;
        xor_word j e;
        if Wire.Codec.fnv1a b ~off ~len = sum then
          missed := Printf.sprintf "off %d words %d,%d error %#x" off i j e :: !missed;
        xor_word i e;
        xor_word j e
      in
      for i = 0 to words - 1 do
        for j = i + 1 to words - 1 do
          for bit = 0 to 31 do
            check i j (1 lsl bit)
          done;
          for v = 1 to 255 do
            check i j (v lsl 24)
          done
        done
      done;
      Alcotest.(check (list string)) "every two-word error caught" [] !missed)
    [ 0; 3 ]

(* A sketch with the given counter image (row-major) and stream length. *)
let cm_of_cells ?(n = 0) counts =
  let t = Sketches.Countmin.create ~family:cm_family in
  Array.iteri
    (fun i c -> Sketches.Countmin.add t ~row:(i / cm_width) ~col:(i mod cm_width) c)
    counts;
  Sketches.Countmin.add_updates t n;
  t

let cm_cells = Hashing.Family.rows cm_family * cm_width

let cm_roundtrips t =
  match cm_decode (Wire.Countmin.encode t) with
  | Ok t' -> cm_equal t t'
  | Error _ -> false

let test_cm_roundtrip_extremes () =
  Alcotest.(check bool) "empty sketch" true
    (cm_roundtrips (cm_of_cells (Array.make cm_cells 0)));
  Alcotest.(check bool) "every cell non-zero" true
    (cm_roundtrips (cm_of_cells ~n:7 (Array.init cm_cells (fun i -> i + 1))));
  Alcotest.(check bool) "max_int cells and n" true
    (cm_roundtrips (cm_of_cells ~n:max_int (Array.make cm_cells max_int)))

(* Equal sketches, equal bytes: the replica check compares [encode] bit for
   bit, so however a state was reached, its encoding must be the same. *)
let test_cm_canonical () =
  let xs = List.init 400 (fun i -> (i * 7919) mod 97) in
  let enc = Wire.Countmin.encode in
  Alcotest.(check bytes) "update order does not matter" (enc (cm_of xs))
    (enc (cm_of (List.rev xs)));
  let h1 = List.filteri (fun i _ -> i mod 2 = 0) xs
  and h2 = List.filteri (fun i _ -> i mod 2 = 1) xs in
  Alcotest.(check bytes) "merged halves encode as the whole"
    (enc (cm_of xs))
    (enc (Sketches.Countmin.merge (cm_of h1) (cm_of h2)));
  let acc = cm_of h1 in
  (match Wire.Countmin.fold ~family:cm_family (enc (cm_of h2)) with
  | Ok apply -> apply acc
  | Error e -> Alcotest.failf "fold: %s" (Wire.Codec.error_to_string e));
  Alcotest.(check bytes) "folding in place encodes as merging" (enc (cm_of xs))
    (enc acc);
  let blob = enc (cm_of xs) in
  match cm_decode blob with
  | Ok t -> Alcotest.(check bytes) "encode ∘ decode = id on bytes" blob (enc t)
  | Error e -> Alcotest.failf "decode: %s" (Wire.Codec.error_to_string e)

(* The deployment family's blob over the golden keys, each once and the
   first 64 twice. The fingerprint, length and payload digest were captured
   before the field multiply and the codec readers were rewritten, and kept
   through wire version 3; the whole-blob digest is version 3's header. *)
let test_cm_golden_blob () =
  let family = Test_helpers.golden_family () in
  let cm = Sketches.Countmin.create ~family in
  Array.iter (Sketches.Countmin.update cm) Test_helpers.golden_keys;
  Array.iteri
    (fun i k -> if i < 64 then Sketches.Countmin.update cm k)
    Test_helpers.golden_keys;
  let blob = Wire.Countmin.encode cm in
  Alcotest.(check int64) "fingerprint" 0x3cf47302daf34a2eL
    (Wire.Countmin.fingerprint family);
  Alcotest.(check int) "length" 3784 (Bytes.length blob);
  Alcotest.(check string) "payload digest" "3a0939c54288cdf65c958ad500157063"
    (Digest.to_hex
       (Digest.subbytes blob Wire.Codec.header_size
          (Bytes.length blob - Wire.Codec.header_size)));
  Alcotest.(check string) "digest" "99f2179dc6b09d89134c2fb155588e11"
    (Digest.to_hex (Digest.bytes blob));
  match Wire.Countmin.decode ~family blob with
  | Ok t -> Alcotest.(check bytes) "decodes to itself" blob (Wire.Countmin.encode t)
  | Error e -> Alcotest.failf "decode: %s" (Wire.Codec.error_to_string e)

let test_cm_fold_all_or_nothing () =
  let acc = cm_of sample in
  let before = Wire.Countmin.encode acc in
  (match
     Wire.Countmin.fold ~family:cm_family
       (Test_helpers.countmin_bad_last_row ~family:cm_family)
   with
  | Error (Wire.Codec.Corrupt _) -> ()
  | Error e ->
      Alcotest.failf "expected Corrupt, got %s" (Wire.Codec.error_to_string e)
  | Ok apply ->
      apply acc;
      Alcotest.fail "a bad last row was accepted");
  Alcotest.(check bytes) "accumulator untouched" before (Wire.Countmin.encode acc);
  let other = Sketches.Countmin.create ~family:(Hashing.Family.seeded ~seed:5L ~rows:3 ~width:32) in
  match Wire.Countmin.fold ~family:cm_family before with
  | Ok apply ->
      Alcotest.check_raises "accumulator of another family"
        (Invalid_argument "Wire.Countmin.fold: accumulator has another family")
        (fun () -> apply other)
  | Error e -> Alcotest.failf "fold: %s" (Wire.Codec.error_to_string e)

(* Version 1 carried the dense matrix and the coefficients. No v1 reader is
   kept: such a blob is refused by its version, before any payload byte is
   read, not misread as a sparse payload with a bad fingerprint. *)
let test_cm_v1_dense_unsupported () =
  let cm = cm_of sample in
  let blob =
    Wire.Codec.encode ~kind:Wire.Codec.countmin_kind (fun b ->
        Wire.Codec.u32 b 3;
        Wire.Codec.u32 b cm_width;
        Array.iter
          (fun (a, c) ->
            Wire.Codec.int_ b a;
            Wire.Codec.int_ b c)
          (Option.get (Hashing.Family.coefficients cm_family));
        Wire.Codec.int_ b (Sketches.Countmin.updates cm);
        for row = 0 to 2 do
          for col = 0 to cm_width - 1 do
            Wire.Codec.int_ b (Sketches.Countmin.cell cm ~row ~col)
          done
        done)
  in
  Bytes.set_uint8 blob 4 1;
  match cm_decode blob with
  | Error (Wire.Codec.Unsupported_version 1) -> ()
  | Error e ->
      Alcotest.failf "expected Unsupported_version 1, got %s"
        (Wire.Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "a v1 dense blob decoded"

(* Version 2 framed the same payloads under a byte-serial checksum. No v2
   reader is kept: an intact v2 blob is refused by its version, not read as
   a v3 blob with a bad checksum. *)
let test_cm_v2_unsupported () =
  let blob = Wire.Countmin.encode (cm_of sample) in
  ignore (Test_helpers.reframe_old ~v:2 blob ~off:0);
  match cm_decode blob with
  | Error (Wire.Codec.Unsupported_version 2) -> ()
  | Error e ->
      Alcotest.failf "expected Unsupported_version 2, got %s"
        (Wire.Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "a v2 blob decoded"

let cm_qcheck =
  let cell = QCheck.Gen.(frequency [ (4, return 0); (3, int_bound 600); (1, int_range 0 max_int) ]) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"countmin decode ∘ encode = id on any cell image"
       ~count:200
       (QCheck.make QCheck.Gen.(pair (array_size (return cm_cells) cell) (int_bound 10_000)))
       (fun (counts, n) -> cm_roundtrips (cm_of_cells ~n counts)))

(* The sparse form written the obvious way: count a row's non-zero cells,
   then list them. [encode] walks each row once and must produce exactly
   these bytes. *)
let cm_reference_encode cm =
  let module C = Wire.Codec in
  let d = Sketches.Countmin.rows cm and w = Sketches.Countmin.width cm in
  C.encode ~kind:C.countmin_kind (fun b ->
      C.u32 b d;
      C.u32 b w;
      C.i64 b (Wire.Countmin.fingerprint (Sketches.Countmin.family cm));
      C.varint b (Sketches.Countmin.updates cm);
      for row = 0 to d - 1 do
        let cols =
          List.filter
            (fun col -> Sketches.Countmin.cell cm ~row ~col <> 0)
            (List.init w Fun.id)
        in
        C.varint b (List.length cols);
        ignore
          (List.fold_left
             (fun prev col ->
               C.varint b (col - prev - 1);
               C.varint b (Sketches.Countmin.cell cm ~row ~col);
               col)
             (-1) cols)
      done)

let cm_reference_qcheck =
  let cell = QCheck.Gen.(frequency [ (4, return 0); (3, int_bound 600); (1, int_range 0 max_int) ]) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"encode = the two-pass reference" ~count:200
       (QCheck.make
          QCheck.Gen.(
            pair
              (frequency
                 [
                   (6, array_size (return cm_cells) cell);
                   (1, array_size (return cm_cells) (int_range 1 600));
                   (1, return (Array.make cm_cells 0));
                 ])
              (int_bound 10_000)))
       (fun (counts, n) ->
         let t = cm_of_cells ~n counts in
         Bytes.equal (Wire.Countmin.encode t) (cm_reference_encode t)))

(* Occupancy bitmaps: whatever writes, merges, resets and ships a sketch
   goes through, [iter_row] and [nonzero] agree with a dense walk over
   [cell], the cells agree with a model that applies the same writes, and
   a ship sends the reference bytes and leaves every cell at 0. 70
   columns: two full bitmap words and a partial third. *)
module Occ_cm = Pipeline.Targets.Countmin (struct
  let seed = 11L
  let rows = 3
  let width = 70
end)

type cm_op =
  | Update of int
  | Update_many of int * int
  | Add of int * int * int
  | Merge of int list
  | Reset
  | Ship

let cm_op_gen =
  let open QCheck.Gen in
  let key = int_bound 500 in
  frequency
    [
      (6, map (fun k -> Update k) key);
      (2, map2 (fun k c -> Update_many (k, c)) key (int_bound 4));
      ( 3,
        map3
          (fun r c v -> Add (r, c, v))
          (int_bound 2) (int_bound 69)
          (frequency [ (2, return 0); (1, int_range 1 5) ]) );
      (1, map (fun ks -> Merge ks) (list_size (int_bound 20) key));
      (1, return Reset);
      (1, return Ship);
    ]

let occupancy_qcheck =
  let module C = Sketches.Countmin in
  let rows = 3 and width = 70 in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"occupancy = dense walk under any op sequence"
       ~count:300
       (QCheck.make
          ~print:
            (QCheck.Print.list (function
              | Update k -> Printf.sprintf "Update %d" k
              | Update_many (k, c) -> Printf.sprintf "Update_many (%d, %d)" k c
              | Add (r, c, v) -> Printf.sprintf "Add (%d, %d, %d)" r c v
              | Merge ks -> Printf.sprintf "Merge [%d keys]" (List.length ks)
              | Reset -> "Reset"
              | Ship -> "Ship"))
          QCheck.Gen.(list_size (int_bound 80) cm_op_gen))
       (fun ops ->
         let t = ref (Occ_cm.create ()) in
         let family = C.family !t in
         let model = Array.make_matrix rows width 0 in
         let bump_key k c =
           for row = 0 to rows - 1 do
             let col = Hashing.Family.hash family ~row k in
             model.(row).(col) <- model.(row).(col) + c
           done
         in
         let zero_model () = Array.iter (fun r -> Array.fill r 0 width 0) model in
         let cols = List.init width Fun.id in
         let agrees cm =
           List.for_all
             (fun row ->
               let dense =
                 List.filter_map
                   (fun col ->
                     let c = C.cell cm ~row ~col in
                     if c <> 0 then Some (col, c) else None)
                   cols
               in
               let walked = ref [] in
               C.iter_row cm ~row (fun col c -> walked := (col, c) :: !walked);
               List.rev !walked = dense
               && C.nonzero cm ~row = List.length dense
               && List.for_all (fun col -> C.cell cm ~row ~col = model.(row).(col)) cols)
             (List.init rows Fun.id)
         in
         List.for_all
           (fun op ->
             let shipped_ok =
               match op with
               | Update k ->
                   C.update !t k;
                   bump_key k 1;
                   true
               | Update_many (k, c) ->
                   C.update_many !t k ~count:c;
                   bump_key k c;
                   true
               | Add (row, col, c) ->
                   C.add !t ~row ~col c;
                   model.(row).(col) <- model.(row).(col) + c;
                   true
               | Merge ks ->
                   let o = Occ_cm.create () in
                   List.iter
                     (fun k ->
                       C.update o k;
                       bump_key k 1)
                     ks;
                   t := C.merge !t o;
                   true
               | Reset ->
                   C.reset !t;
                   zero_model ();
                   C.updates !t = 0
               | Ship ->
                   let expect = cm_reference_encode !t in
                   let blob, d = Occ_cm.ship !t in
                   zero_model ();
                   t := d;
                   Bytes.equal blob expect && C.updates d = 0
             in
             shipped_ok && agrees !t)
           ops))

(* The encoder against the reference over random shapes: 1-5 rows of width
   1-700 (so column gaps reach past 127), each row empty, sparse, sparse
   with wide gaps or full, counts of one byte, two, three and up to
   max_int, and a stream length past 2^14. The blob decodes back. *)
let cm_reference_shapes_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"encode = the reference over random dimensions"
       ~count:200
       QCheck.(triple (int_range 1 5) (int_range 1 700) (int_bound 1_000_000))
       (fun (rows, width, s) ->
         let st = Random.State.make [| s |] in
         let family =
           Hashing.Family.seeded ~seed:(Int64.of_int s) ~rows ~width
         in
         let t = Sketches.Countmin.create ~family in
         let count () =
           match Random.State.int st 10 with
           | 0 | 1 | 2 | 3 | 4 -> 1 + Random.State.int st 127
           | 5 | 6 -> 128 + Random.State.int st (16384 - 128)
           | 7 | 8 -> 16384 + Random.State.full_int st (1 lsl 40)
           | _ -> max_int
         in
         for row = 0 to rows - 1 do
           let one_in = [| 0; 8; 300; 1 |].(Random.State.int st 4) in
           if one_in > 0 then
             for col = 0 to width - 1 do
               if Random.State.int st one_in = 0 then
                 Sketches.Countmin.add t ~row ~col (count ())
             done
         done;
         Sketches.Countmin.add_updates t (Random.State.int st 1_000_000);
         let blob = Wire.Countmin.encode t in
         Bytes.equal blob (cm_reference_encode t)
         &&
         match Wire.Countmin.decode ~family blob with
         | Ok t' -> cm_equal t t'
         | Error _ -> false))

(* A ship sends the reference bytes and hands back a delta equal to
   [create ()] — cells, occupancy, per-row counts and n — and shipping
   that same delta again sends the reference bytes again. *)
module Ship_cm = Pipeline.Targets.Countmin (struct
  let seed = 13L
  let rows = 4
  let width = 300
end)

let test_cm_ship_empties () =
  let module C = Sketches.Countmin in
  let empty = Wire.Countmin.encode (Ship_cm.create ()) in
  let ship d salt =
    for i = 0 to 199 do
      C.update d ((i * 7919) + salt)
    done;
    C.add d ~row:1 ~col:299 20_000;
    C.add d ~row:3 ~col:0 (1 lsl 40);
    let expect = cm_reference_encode d in
    let blob, d = Ship_cm.ship d in
    Alcotest.(check bytes) "ship sends the reference bytes" expect blob;
    Alcotest.(check int) "n" 0 (C.updates d);
    for row = 0 to C.rows d - 1 do
      Alcotest.(check int) "row count" 0 (C.nonzero d ~row);
      Alcotest.(check bool) "occupancy clear" true
        (Array.for_all (( = ) 0) (C.occupancy d ~row));
      Alcotest.(check bool) "cells zero" true
        (Array.for_all (( = ) 0) (C.counters d ~row))
    done;
    Alcotest.(check bytes) "encodes as create ()" empty (Wire.Countmin.encode d);
    d
  in
  ignore (ship (ship (Ship_cm.create ()) 1) 2)

(* The first row's pair count written by hand, then one valid pair, and
   the other rows valid. *)
let raw_first_count bytes b =
  Buffer.add_string b bytes;
  Wire.Codec.varint b 0;
  Wire.Codec.varint b 1;
  cm_row b [ (0, 1) ];
  cm_row b [ (0, 1) ]

(* The first row's only pair, with its count written by hand. *)
let raw_count bytes b =
  Wire.Codec.varint b 1;
  Wire.Codec.varint b 0;
  Buffer.add_string b bytes

let rest b =
  cm_row b [ (0, 1) ];
  cm_row b [ (0, 1) ]

let other ~seed ~rows ~width =
  let t =
    Sketches.Countmin.create ~family:(Hashing.Family.seeded ~seed ~rows ~width)
  in
  List.iter (Sketches.Countmin.update t) sample;
  Wire.Countmin.encode t

(* Every CountMin blob the suites above reject, with the error each gave
   before the cell walks read their varints in place. *)
let cm_corrupt_cases =
  [
    ("sketch from another seed", "corrupt payload: family fingerprint eed4484f78d138b5 does not match 87ffb414bdbfee67", other ~seed:100L ~rows:3 ~width:32);
    ( "forged fingerprint",
      "corrupt payload: family fingerprint 2ec0177c92ff84c2 does not match 87ffb414bdbfee67",
      cm_blob
        ~fingerprint:
          (Wire.Countmin.fingerprint
             (Hashing.Family.seeded ~seed:7L ~rows:3 ~width:32))
        ~n:1 one_per_row );
    ("more rows", "corrupt payload: dimensions 4x32 do not match the family's 3x32", other ~seed ~rows:4 ~width:32);
    ("wider", "corrupt payload: dimensions 3x64 do not match the family's 3x32", other ~seed ~rows:3 ~width:64);
    ("header claims 4 rows", "corrupt payload: dimensions 4x32 do not match the family's 3x32", cm_blob ~rows:4 ~n:1 one_per_row);
    ("header claims width 64", "corrupt payload: dimensions 3x64 do not match the family's 3x32", cm_blob ~width:64 ~n:1 one_per_row);
    ( "column = width",
      "corrupt payload: row 0: column gap 32 runs past width 32",
      cm_blob ~n:1 (fun b ->
          cm_row b [ (cm_width, 1) ];
          rest b) );
    ( "gaps run past the width",
      "corrupt payload: row 0: column gap 11 runs past width 32",
      cm_blob ~n:2 (fun b ->
          cm_row b [ (20, 1); (11, 1) ];
          cm_row b [ (0, 2) ];
          cm_row b [ (0, 2) ]) );
    ( "gap that would overflow",
      "corrupt payload: row 0: column gap 4611686018427387903 runs past width 32",
      cm_blob ~n:2 (fun b ->
          cm_row b [ (5, 1); (max_int, 1) ];
          cm_row b [ (0, 2) ];
          cm_row b [ (0, 2) ]) );
    ( "explicit zero count",
      "corrupt payload: row 1 col 5: explicit zero count",
      cm_blob ~n:1 (fun b ->
          cm_row b [ (0, 1) ];
          cm_row b [ (0, 1); (4, 0) ];
          cm_row b [ (0, 1) ]) );
    ( "row lists more cells than the width",
      "corrupt payload: row 0 lists 33 non-zero cells in width 32",
      cm_blob ~n:1 (fun b ->
          cm_row b (List.init (cm_width + 1) (fun _ -> (0, 1)));
          rest b) );
    ( "overlong pair count (zero final group)",
      "corrupt payload: overlong varint (zero final group)",
      cm_blob ~n:1 (raw_first_count "\x81\x00") );
    ( "overlong pair count (10 bytes)",
      "corrupt payload: overlong varint (more than 9 bytes)",
      cm_blob ~n:1 (raw_first_count "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x00") );
    ( "pair count past the native range",
      "corrupt payload: varint exceeds native range",
      cm_blob ~n:1 (raw_first_count "\x81\x80\x80\x80\x80\x80\x80\x80\x40") );
    ("two-byte count cut at the payload's end", "truncated blob: needed 35 bytes, have 34", cm_blob ~n:1 (raw_count "\x81"));
    ( "nine-byte count cut at the payload's end",
      "truncated blob: needed 42 bytes, have 41",
      cm_blob ~n:1 (raw_count "\x81\x80\x80\x80\x80\x80\x80\x80") );
    ( "payload ends where a varint should start",
      "truncated blob: needed 34 bytes, have 33",
      cm_blob ~n:1 (fun b ->
          Wire.Codec.varint b 1;
          Wire.Codec.varint b 0) );
    ( "count with a zero final group",
      "corrupt payload: overlong varint (zero final group)",
      cm_blob ~n:1 (fun b ->
          raw_count "\x81\x00" b;
          rest b) );
    ( "count of more than 9 groups",
      "corrupt payload: overlong varint (more than 9 bytes)",
      cm_blob ~n:1 (fun b ->
          raw_count "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x01" b;
          rest b) );
    ( "count past the native range",
      "corrupt payload: varint exceeds native range",
      cm_blob ~n:1 (fun b ->
          raw_count "\x81\x80\x80\x80\x80\x80\x80\x80\x40" b;
          rest b) );
    ( "overlong stream length",
      "corrupt payload: overlong varint (zero final group)",
      Wire.Codec.encode ~kind:Wire.Countmin.kind (fun b ->
          Wire.Codec.u32 b (Hashing.Family.rows cm_family);
          Wire.Codec.u32 b cm_width;
          Wire.Codec.i64 b (Wire.Countmin.fingerprint cm_family);
          Buffer.add_string b "\x80\x00";
          one_per_row b) );
    ("bad last row", "corrupt payload: row 2 col 3: explicit zero count", Test_helpers.countmin_bad_last_row ~family:cm_family);
    ( "zero count after a run of one-byte pairs",
      "corrupt payload: row 0 col 11: explicit zero count",
      cm_blob ~n:9 (fun b ->
          cm_row b [ (0, 1); (1, 2); (0, 3); (4, 1); (2, 0) ];
          rest b) );
    ( "two-byte gap past the width after a run",
      "corrupt payload: row 0: column gap 200 runs past width 32",
      cm_blob ~n:9 (fun b ->
          cm_row b [ (0, 1); (1, 2); (200, 1) ];
          rest b) );
    ( "two-byte count, then a gap past the width",
      "corrupt payload: row 0: column gap 31 runs past width 32",
      cm_blob ~n:300 (fun b ->
          cm_row b [ (0, 300); (31, 1) ];
          rest b) );
    ( "a row's pairs cut by the payload's end",
      "truncated blob: needed 44 bytes, have 43",
      cm_blob ~n:3 (fun b ->
          cm_row b [ (0, 1); (1, 1) ];
          cm_row b [ (0, 1) ];
          Wire.Codec.varint b 2;
          Wire.Codec.varint b 0;
          Wire.Codec.varint b 1;
          Wire.Codec.varint b 0) );
  ]

let test_cm_corrupt_pinned () =
  let acc = cm_of sample in
  let before = Wire.Countmin.encode acc in
  List.iter
    (fun (name, want, blob) ->
      (match Wire.Countmin.fold ~family:cm_family blob with
      | Ok apply ->
          apply acc;
          Alcotest.failf "%s: folded" name
      | Error e ->
          Alcotest.(check string) (name ^ " via fold") want
            (Wire.Codec.error_to_string e));
      (match cm_decode blob with
      | Ok _ -> Alcotest.failf "%s: decoded" name
      | Error e ->
          Alcotest.(check string) (name ^ " via decode") want
            (Wire.Codec.error_to_string e));
      Alcotest.(check bytes) (name ^ ": accumulator untouched") before
        (Wire.Countmin.encode acc))
    cm_corrupt_cases

(* ------------------------- segment reading ------------------------- *)

(* A segment file is a concatenation of frames; [Wire.Segment.iter] must
   hand on exactly the valid prefix, whatever the damage shape. *)

let frame_of_int i =
  Wire.Codec.encode ~kind:Wire.Codec.wal_record_kind (fun b ->
      Wire.Codec.int_ b i)

let concat_frames frames = Bytes.concat Bytes.empty frames

(* Write [buf] as a segment file and read it back with [Wire.Segment.iter]. *)
let iter_image buf =
  let path = Filename.temp_file "ivl-segment" ".seg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_bytes oc buf;
      close_out oc;
      Test_helpers.read_segment path)

let test_segment_scan_clean () =
  let frames, tail = iter_image (concat_frames (List.init 5 frame_of_int)) in
  Alcotest.(check int) "all frames" 5 (List.length frames);
  Alcotest.(check bool) "clean tail" true (tail = Wire.Segment.Clean);
  List.iteri
    (fun i f ->
      Alcotest.(check bytes) (Printf.sprintf "frame %d intact" i)
        (frame_of_int i) f)
    frames;
  let frames, tail = iter_image Bytes.empty in
  Alcotest.(check int) "empty file, no frames" 0 (List.length frames);
  Alcotest.(check bool) "empty file clean" true (tail = Wire.Segment.Clean)

let test_segment_scan_torn_tail_every_cut () =
  (* Truncate a 3-frame file at every byte offset: the walk must always
     yield the frames wholly before the cut and report the exact remainder
     as dropped. *)
  let frames = List.init 3 frame_of_int in
  let buf = concat_frames frames in
  let ends =
    (* cumulative end offsets of each frame *)
    List.rev
      (List.fold_left
         (fun acc f ->
           let prev = match acc with [] -> 0 | e :: _ -> e in
           (prev + Bytes.length f) :: acc)
         [] frames)
  in
  for cut = 0 to Bytes.length buf - 1 do
    let got, tail = iter_image (Bytes.sub buf 0 cut) in
    let expect = List.length (List.filter (fun e -> e <= cut) ends) in
    if List.length got <> expect then
      Alcotest.failf "cut %d: %d frames, want %d" cut (List.length got) expect;
    match tail with
    | Wire.Segment.Clean ->
        if not (List.mem cut (0 :: ends)) then
          Alcotest.failf "cut %d: clean tail mid-frame" cut
    | Wire.Segment.Torn { valid_prefix; dropped_bytes; _ } ->
        Alcotest.(check int)
          (Printf.sprintf "cut %d: prefix + dropped = cut" cut)
          cut (valid_prefix + dropped_bytes)
  done

let test_segment_scan_corruption_stops () =
  let frames = List.init 4 frame_of_int in
  let buf = concat_frames frames in
  let f0 = Bytes.length (frame_of_int 0) in
  (* Flip a payload byte of frame 1: frames 2..3 are after the hole and must
     not be yielded even though they are themselves intact. *)
  let dam = Bytes.copy buf in
  let off = f0 + Wire.Codec.header_size in
  Bytes.set_uint8 dam off (Bytes.get_uint8 dam off lxor 0x01);
  let got, tail = iter_image dam in
  Alcotest.(check int) "only the prefix" 1 (List.length got);
  (match tail with
  | Wire.Segment.Torn { valid_prefix; reason; _ } ->
      Alcotest.(check int) "cut at frame 1" f0 valid_prefix;
      Alcotest.(check bool) "checksum named" true
        (String.length reason > 0)
  | Wire.Segment.Clean -> Alcotest.fail "expected a torn tail");
  (* Garbage between frames: same rule. *)
  let gar =
    Bytes.concat Bytes.empty [ frame_of_int 0; Bytes.of_string "JUNK"; frame_of_int 1 ]
  in
  let got, _ = iter_image gar in
  Alcotest.(check int) "prefix before garbage" 1 (List.length got)

let () =
  Alcotest.run "wire"
    [
      ( "round-trip",
        [
          Alcotest.test_case "pinned sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "empty sketches" `Quick test_roundtrip_empty;
          Alcotest.test_case "peek" `Quick test_peek;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every truncation rejected" `Quick test_truncation;
          Alcotest.test_case "every bit flip rejected" `Quick test_bit_flips;
          Alcotest.test_case "wrong magic" `Quick test_wrong_magic;
          Alcotest.test_case "future version" `Quick test_future_version;
          Alcotest.test_case "wrong kind" `Quick test_wrong_kind;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_garbage;
          Alcotest.test_case "fnv1a: value and range check" `Quick test_fnv1a;
          checksum_error_qcheck;
          Alcotest.test_case "checksum catches two-word top-bit and top-byte errors"
            `Quick test_checksum_two_word_errors;
        ] );
      ( "segment",
        [
          Alcotest.test_case "clean scan" `Quick test_segment_scan_clean;
          Alcotest.test_case "torn tail at every cut" `Quick
            test_segment_scan_torn_tail_every_cut;
          Alcotest.test_case "corruption ends the scan" `Quick
            test_segment_scan_corruption_stops;
        ] );
      ( "cm-sparse",
        [
          Alcotest.test_case "negative controls are Corrupt" `Quick
            test_cm_negative_controls;
          Alcotest.test_case "empty, full and max_int round-trip" `Quick
            test_cm_roundtrip_extremes;
          Alcotest.test_case "canonical bytes" `Quick test_cm_canonical;
          Alcotest.test_case "fold is all or nothing" `Quick
            test_cm_fold_all_or_nothing;
          Alcotest.test_case "v1 dense blob is Unsupported_version 1" `Quick
            test_cm_v1_dense_unsupported;
          Alcotest.test_case "v2 blob is Unsupported_version 2" `Quick
            test_cm_v2_unsupported;
          cm_qcheck;
          cm_reference_qcheck;
          Alcotest.test_case "varint edges via fold and decode" `Quick
            test_cm_varint_edges;
          Alcotest.test_case "golden blob (seed 49, 4x2048)" `Quick
            test_cm_golden_blob;
          occupancy_qcheck;
          cm_reference_shapes_qcheck;
          Alcotest.test_case "ship empties the delta, re-ships the reference"
            `Quick test_cm_ship_empties;
          Alcotest.test_case "corrupt blobs: pinned errors, accumulator untouched"
            `Quick test_cm_corrupt_pinned;
        ] );
      ("properties", qcheck_tests);
    ]
