(* Framing: every blob is

     magic "IVLW" (4) | version u8 | kind u8 | payload length u32 (BE)
     | checksum of payload u32 (BE) | payload

   Every header field is validated before a single payload byte is parsed,
   so mixed-version or mixed-kind blobs fail with a precise error instead of
   a garbage sketch, and any single-bit flip is caught: flips in the header
   break the magic/version/kind/length checks, flips in the payload or the
   checksum break the checksum comparison.

   Version 3's checksum is FNV-1a-32 over folded words (see [fnv1a]);
   versions 1 and 2 ran FNV-1a-32 a byte at a time and have no reader. *)

let magic = "IVLW"
let version = 3
let header_size = 4 + 1 + 1 + 4 + 4

type error =
  | Truncated of { expected : int; got : int }
  | Bad_magic
  | Unsupported_version of int
  | Wrong_kind of { expected : string; got : string }
  | Unknown_kind of int
  | Checksum_mismatch
  | Corrupt of string

exception Decode_error of error

let error_to_string = function
  | Truncated { expected; got } ->
      Printf.sprintf "truncated blob: needed %d bytes, have %d" expected got
  | Bad_magic -> "bad magic: not an IVLW blob"
  | Unsupported_version v -> Printf.sprintf "unsupported wire version %d" v
  | Wrong_kind { expected; got } ->
      Printf.sprintf "wrong kind: expected %s, blob holds %s" expected got
  | Unknown_kind k -> Printf.sprintf "unknown frame kind %d" k
  | Checksum_mismatch -> "payload checksum mismatch"
  | Corrupt msg -> Printf.sprintf "corrupt payload: %s" msg

(* Kind tags are part of the wire format: never renumber, only append.
   Kinds 2 (hyperloglog), 4 (quantiles), 5 (space-saving) and 18 (a second
   batch kind) are retired and never reused: they decode as Unknown_kind. *)
let countmin_kind = 1
let kmv_kind = 3
let counter_kind = 6
let wal_record_kind = 7
let checkpoint_kind = 8
let trace_header_kind = 9
let trace_block_kind = 10
let net_batch_kind = 11
let net_query_kind = 12
let net_reply_kind = 13
let net_subscribe_kind = 14
let net_delta_kind = 15
let net_hello_kind = 16
let net_session_kind = 17

let kind_name = function
  | 1 -> "countmin"
  | 3 -> "kmv"
  | 6 -> "counter"
  | 7 -> "wal-record"
  | 8 -> "checkpoint"
  | 9 -> "trace-header"
  | 10 -> "trace-block"
  | 11 -> "net-batch"
  | 12 -> "net-query"
  | 13 -> "net-reply"
  | 14 -> "net-subscribe"
  | 15 -> "net-delta"
  | 16 -> "net-hello"
  | 17 -> "net-session"
  | k -> Printf.sprintf "unknown(%d)" k

let known_kind k = k >= 1 && k <= 17 && k <> 2 && k <> 4 && k <> 5

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Decode_error (Corrupt msg))) fmt

(* FNV-1a-32's step, h <- (h xor w) * 16777619 mod 2^32, over the payload
   as folded 32-bit little-endian words in two interleaved lanes: each
   8-byte group is one little-endian read, its low word stepped into lane [a]
   and its high word into lane [b], so the two multiply chains overlap. The
   lanes are then stepped, [a] before [b], into a fresh FNV-1a state, and
   the last [len mod 8] bytes are stepped in one at a time.

   Each word w is folded first, w xor (w >> 2) xor (w >> 11) xor (w >> 17).
   A multiply mod 2^32 only carries upward, so a word error that reached
   the chain only in bits >= j would be checked by 32 - j bits once other
   words err too, and a lone bit-31 error stays the same xor in every
   later state: two of them, in any two words, would cancel. Folded, an
   error of at most three bits of a word, or confined to one of its bytes,
   enters the chain at bit 14 or below, and one confined to two adjacent
   bytes at bit 16 or below; an error that the fold sends to bit 31 alone
   flips 23 bits of the word.

   The fold and every step are bijections (the prime is odd), in the
   state and in the word, so an error confined to one word or one tail
   byte always changes the result: every single-bit flip is caught. The
   low 32 bits of [(h lxor w) * prime] depend only on the low 32 bits of
   [h] and [w], so the lanes run on whole, unboxed int64s (lane [a] xors
   in the group's high word too), both words of a group fold at once under
   masks that keep each word's shifts inside it, and one mask at the end
   gives the exact value. The range is checked once, up front, so the
   8-byte reads skip [Bytes.get_int64_le]'s per-read bounds check, which
   cost more than the fold. *)
external get_int64_ne_unsafe : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_int64_le_unsafe b i =
  if Sys.big_endian then swap64 (get_int64_ne_unsafe b i)
  else get_int64_ne_unsafe b i

let fnv1a bytes ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Wire.Codec.fnv1a: range out of bounds";
  let prime = 0x01000193 and basis = 0x811c9dc5 in
  let a = ref (Int64.of_int basis) and b = ref (Int64.of_int basis) in
  let words_end = off + (len land lnot 7) in
  let i = ref off in
  while !i < words_end do
    let g = get_int64_le_unsafe bytes !i in
    let g =
      Int64.logxor
        (Int64.logxor g
           (Int64.logand (Int64.shift_right_logical g 2) 0x3FFFFFFF3FFFFFFFL))
        (Int64.logxor
           (Int64.logand (Int64.shift_right_logical g 11) 0x001FFFFF001FFFFFL)
           (Int64.logand (Int64.shift_right_logical g 17) 0x00007FFF00007FFFL))
    in
    a := Int64.mul (Int64.logxor !a g) 0x01000193L;
    b :=
      Int64.mul (Int64.logxor !b (Int64.shift_right_logical g 32)) 0x01000193L;
    i := !i + 8
  done;
  let h =
    ref ((((basis lxor Int64.to_int !a) * prime) lxor Int64.to_int !b) * prime)
  in
  for j = words_end to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get bytes j)) * prime
  done;
  !h land 0xFFFFFFFF

(* ------------------------------ writer ------------------------------ *)

type writer = Buffer.t

let u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Wire.Codec.u8: out of range";
  Buffer.add_uint8 b v

let u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.Codec.u32: out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let i64 b v = Buffer.add_int64_be b v

let int_ b v = i64 b (Int64.of_int v)

let float_ b v = i64 b (Int64.bits_of_float v)

let bytes_ b v =
  u32 b (Bytes.length v);
  Buffer.add_bytes b v

(* LEB128: seven bits per byte, low group first, high bit = "more". *)
let varint b v =
  if v < 0 then invalid_arg "Wire.Codec.varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_uint8 b (!v land 0x7F lor 0x80);
    v := !v lsr 7
  done;
  Buffer.add_uint8 b !v

(* Write the header of a frame whose [plen] payload bytes already sit at
   [off + header_size] in [out], checksumming them in place. *)
let seal_into out ~off ~kind ~plen =
  Bytes.blit_string magic 0 out off 4;
  Bytes.set_uint8 out (off + 4) version;
  Bytes.set_uint8 out (off + 5) kind;
  Bytes.set_int32_be out (off + 6) (Int32.of_int plen);
  Bytes.set_int32_be out (off + 10)
    (Int32.of_int (fnv1a out ~off:(off + header_size) ~len:plen))

let seal ~kind payload =
  let plen = Buffer.length payload in
  let out = Bytes.create (header_size + plen) in
  Buffer.blit payload 0 out header_size plen;
  seal_into out ~off:0 ~kind ~plen;
  out

let encode ~kind build =
  let b = Buffer.create 256 in
  build b;
  seal ~kind b

(* ------------------------------ reader ------------------------------ *)

(* A reader over the frame at [base] in [buf]: [pos] and [limit] index
   [buf], while errors count from the frame's first byte, so a frame
   parsed in place reads exactly as a copy of it would. *)
type reader = { buf : Bytes.t; base : int; limit : int; mutable pos : int }

let need r n =
  if r.pos + n > r.limit then
    raise
      (Decode_error
         (Truncated { expected = r.pos + n - r.base; got = r.limit - r.base }))

let read_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_be r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

(* Inlined, so the int64 [read_int] converts stays unboxed: reading a
   frame's keys allocates nothing per key. *)
let[@inline] read_i64 r =
  need r 8;
  let v = Bytes.get_int64_be r.buf r.pos in
  r.pos <- r.pos + 8;
  v

(* A count prefix is checked against the unread payload before the caller
   allocates anything sized by it: a forged count fails here as Truncated
   instead of reaching Array.make. *)
let read_count r ~elt_bytes =
  let n = read_u32 r in
  need r (n * elt_bytes);
  n

let read_int r =
  let v = read_i64 r in
  let n = Int64.to_int v in
  if not (Int64.equal (Int64.of_int n) v) then corrupt "integer %Ld exceeds native range" v;
  n

let read_float r = Int64.float_of_bits (read_i64 r)

(* Exactly the bytes [varint] writes: at most 9 groups (a non-negative
   native int has 62 bits), the 9th without a continuation and within
   range, and no zero final group after the first — so every value has one
   encoding and a canonical encoder's bytes are the only ones accepted. *)
let read_varint_groups r =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let byte = read_u8 r in
    acc := !acc lor ((byte land 0x7F) lsl !shift);
    if byte land 0x80 = 0 then begin
      if byte = 0 && !shift > 0 then corrupt "overlong varint (zero final group)";
      if !shift = 56 && byte > 0x3F then corrupt "varint exceeds native range";
      more := false
    end
    else if !shift = 56 then corrupt "overlong varint (more than 9 bytes)"
    else shift := !shift + 7
  done;
  !acc

(* Most varints on the wire (column gaps, counts) are one byte: one bounds
   check against [limit] (which never exceeds the buffer) and one load. *)
let[@inline] read_varint r =
  let pos = r.pos in
  if pos < r.limit then
    let byte = Char.code (Bytes.unsafe_get r.buf pos) in
    if byte < 0x80 then begin
      r.pos <- pos + 1;
      byte
    end
    else read_varint_groups r
  else read_varint_groups r

let buffer r = r.buf
let cursor r = r.pos
let limit r = r.limit

let set_cursor r pos =
  if pos < r.base + header_size || pos > r.limit then
    invalid_arg "Wire.Codec.set_cursor";
  r.pos <- pos

let read_bytes r =
  let len = read_u32 r in
  need r len;
  let v = Bytes.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  v

let has_magic bytes off =
  Bytes.unsafe_get bytes off = 'I'
  && Bytes.unsafe_get bytes (off + 1) = 'V'
  && Bytes.unsafe_get bytes (off + 2) = 'L'
  && Bytes.unsafe_get bytes (off + 3) = 'W'

let peek bytes =
  let got = Bytes.length bytes in
  if got < header_size then Error (Truncated { expected = header_size; got })
  else if not (has_magic bytes 0) then Error Bad_magic
  else Ok (kind_name (Bytes.get_uint8 bytes 5), Bytes.get_uint8 bytes 4)

let frame_kind bytes =
  let got = Bytes.length bytes in
  if got < header_size then Error (Truncated { expected = header_size; got })
  else if not (has_magic bytes 0) then Error Bad_magic
  else
    let v = Bytes.get_uint8 bytes 4 in
    if v <> version then Error (Unsupported_version v)
    else
      let k = Bytes.get_uint8 bytes 5 in
      if known_kind k then Ok k else Error (Unknown_kind k)

let open_frame ~kind bytes ~off ~len:got =
  if got < header_size then
    raise (Decode_error (Truncated { expected = header_size; got }));
  if not (has_magic bytes off) then raise (Decode_error Bad_magic);
  let v = Bytes.get_uint8 bytes (off + 4) in
  if v <> version then raise (Decode_error (Unsupported_version v));
  let k = Bytes.get_uint8 bytes (off + 5) in
  if k <> kind then
    raise
      (Decode_error
         (if known_kind k then
            Wrong_kind { expected = kind_name kind; got = kind_name k }
          else Unknown_kind k));
  let plen = Int32.to_int (Bytes.get_int32_be bytes (off + 6)) land 0xFFFFFFFF in
  if header_size + plen > got then
    raise (Decode_error (Truncated { expected = header_size + plen; got }));
  if header_size + plen < got then
    corrupt "%d trailing bytes after payload" (got - header_size - plen);
  let stored = Int32.to_int (Bytes.get_int32_be bytes (off + 10)) land 0xFFFFFFFF in
  if fnv1a bytes ~off:(off + header_size) ~len:plen <> stored then
    raise (Decode_error Checksum_mismatch);
  { buf = bytes; base = off; limit = off + got; pos = off + header_size }

let decode_sub ~kind parse bytes ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Wire.Codec.decode_sub: range out of bounds";
  match
    let r = open_frame ~kind bytes ~off ~len in
    let v = parse r in
    if r.pos <> r.limit then corrupt "%d unread payload bytes" (r.limit - r.pos);
    v
  with
  | v -> Ok v
  | exception Decode_error e -> Error e
  (* A constructor rejecting a structurally valid but semantically bad image
     (e.g. negative counters) must surface as a decode error, never as a raw
     exception leaking to the caller. *)
  | exception Invalid_argument msg -> Error (Corrupt msg)
  | exception Failure msg -> Error (Corrupt msg)

let decode ~kind parse bytes =
  decode_sub ~kind parse bytes ~off:0 ~len:(Bytes.length bytes)
