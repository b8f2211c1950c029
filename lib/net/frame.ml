(* Payload schemas (everything else — magic, version, kind, length,
   checksum — is Wire.Codec's framing):

     net-batch      i64 session, i64 seq, i64 trace_id, i64 parent,
                    u32 count, count * i64 keys
     net-query      u8 tag (0 total | 1 point | 2 quantile | 3 top), arg
     net-reply      u8 tag (0 ack | 1 result | 2 err), body
                    (ack body: i64 epoch, i64 accepted, u8 dup)
     net-subscribe  (empty)
     net-delta      u8 tag (0 snapshot | 1 delta), i64 epoch,
                    i64 published/weight, bytes blob
     net-hello      i64 session

   Dispatch on a mixed stream goes through Codec.frame_kind, so a frame
   carrying a kind tag this build has never heard of comes back as
   Unknown_kind — the server's "unsupported" answer — while a known but
   out-of-place kind (a checkpoint on a client connection) is Wrong_kind.

   Every batch carries its trace context, zero (untraced) or not, so there
   is one batch kind and one parser; an untraced batch pays 16 bytes. *)

module Codec = Wire.Codec

type query = Total | Point of int

type request =
  | Batch of {
      session : int64;
      seq : int;
      ctx : Obs.Span.context;  (* Span.zero = untraced *)
      keys : int array;
    }
  | Query of query
  | Subscribe
  | Hello of { session : int64 }

type err_code = Unsupported | Malformed | Overloaded | Internal

type response =
  | Ack of { epoch : int; accepted : int; dup : bool }
  | Result of { epoch : int; pairs : (int * int) list }
  | Err of { code : err_code; msg : string }

type push =
  | Snapshot of { epoch : int; published : int; blob : Bytes.t }
  | Delta of { epoch : int; weight : int; blob : Bytes.t }

let err_code_to_string = function
  | Unsupported -> "unsupported"
  | Malformed -> "malformed"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let query_to_string = function
  | Total -> "total"
  | Point k -> Printf.sprintf "point(%d)" k

(* ------------------------------ batches ------------------------------- *)

(* The one batch codec. The served path writes frames into pooled buffers
   and parses them in place into a reused [batch]; [encode_request] and
   [decode_request] route a [Batch] through the same two functions. *)

type batch = {
  mutable session : int64;
  mutable seq : int;
  mutable ctx : Obs.Span.context;
  mutable keys : int array;
  mutable count : int;
}

let batch () =
  { session = 0L; seq = 0; ctx = Obs.Span.zero; keys = [||]; count = 0 }

(* session, seq, trace id, parent (i64 each), then the u32 count *)
let batch_fixed = (4 * 8) + 4
let batch_frame_size n = Codec.header_size + batch_fixed + (8 * n)

let write_batch buf ~session ~seq ~(ctx : Obs.Span.context) keys ~len:n =
  if seq < 0 then invalid_arg "Net.Frame: negative batch seq";
  if n < 0 || n > Array.length keys then
    invalid_arg "Net.Frame.write_batch: len out of bounds";
  let size = batch_frame_size n in
  if Bytes.length buf < size then
    invalid_arg "Net.Frame.write_batch: buffer too small";
  let p = Codec.header_size in
  Bytes.set_int64_be buf p session;
  Bytes.set_int64_be buf (p + 8) (Int64.of_int seq);
  Bytes.set_int64_be buf (p + 16) ctx.trace_id;
  Bytes.set_int64_be buf (p + 24) ctx.parent;
  Bytes.set_int32_be buf (p + 32) (Int32.of_int n);
  let k0 = p + batch_fixed in
  for i = 0 to n - 1 do
    Bytes.set_int64_be buf (k0 + (8 * i)) (Int64.of_int (Array.unsafe_get keys i))
  done;
  Codec.seal_into buf ~off:0 ~kind:Codec.net_batch_kind ~plen:(size - p);
  size

(* Fields are stored only when they change: a session or context stored
   per frame would box an int64 or a record per frame, which is what
   reusing [b] avoids. The key count is checked against the payload before
   [b.keys] grows. *)
let parse_batch b r =
  let session = Codec.read_i64 r in
  let seq = Codec.read_int r in
  if seq < 0 then Codec.corrupt "negative batch seq %d" seq;
  let trace_id = Codec.read_i64 r in
  let parent = Codec.read_i64 r in
  (* An untraced batch has no parent span to point at. *)
  if Int64.equal trace_id 0L && not (Int64.equal parent 0L) then
    Codec.corrupt "net-batch with zero trace id but parent %Lx" parent;
  let n = Codec.read_count r ~elt_bytes:8 in
  if Array.length b.keys < n then b.keys <- Array.make n 0;
  let keys = b.keys in
  for i = 0 to n - 1 do
    Array.unsafe_set keys i (Codec.read_int r)
  done;
  if not (Int64.equal b.session session) then b.session <- session;
  b.seq <- seq;
  let ctx : Obs.Span.context = b.ctx in
  if not (Int64.equal ctx.trace_id trace_id && Int64.equal ctx.parent parent)
  then
    b.ctx <-
      (if Int64.equal trace_id 0L then Obs.Span.zero
       else { Obs.Span.trace_id; parent });
  b.count <- n

let is_batch buf ~off ~len =
  len > 5 && Bytes.get_uint8 buf (off + 5) = Codec.net_batch_kind

let decode_batch b buf ~off ~len =
  Codec.decode_sub ~kind:Codec.net_batch_kind (parse_batch b) buf ~off ~len

(* ------------------------------ requests ------------------------------ *)

let encode_request = function
  | Batch { session; seq; ctx; keys } ->
      let n = Array.length keys in
      let buf = Bytes.create (batch_frame_size n) in
      ignore (write_batch buf ~session ~seq ~ctx keys ~len:n);
      buf
  | Query q ->
      Codec.encode ~kind:Codec.net_query_kind (fun b ->
          match q with
          | Total -> Codec.u8 b 0
          | Point k ->
              Codec.u8 b 1;
              Codec.int_ b k)
  | Subscribe -> Codec.encode ~kind:Codec.net_subscribe_kind ignore
  | Hello { session } ->
      Codec.encode ~kind:Codec.net_hello_kind (fun b -> Codec.i64 b session)

let parse_query r =
  match Codec.read_u8 r with
  | 0 -> Query Total
  | 1 -> Query (Point (Codec.read_int r))
  (* tags 2 (quantile) and 3 (top) are retired and never reused *)
  | t -> Codec.corrupt "unknown query tag %d" t

let parse_hello r = Hello { session = Codec.read_i64 r }

let decode_request bytes =
  match Codec.frame_kind bytes with
  | Error e -> Error e
  | Ok k when k = Codec.net_batch_kind -> (
      (* a fresh batch grows its keys to exactly the frame's count *)
      let b = batch () in
      match decode_batch b bytes ~off:0 ~len:(Bytes.length bytes) with
      | Error e -> Error e
      | Ok () ->
          Ok (Batch { session = b.session; seq = b.seq; ctx = b.ctx; keys = b.keys }))
  | Ok k when k = Codec.net_query_kind -> Codec.decode ~kind:k parse_query bytes
  | Ok k when k = Codec.net_subscribe_kind ->
      Codec.decode ~kind:k (fun _ -> Subscribe) bytes
  | Ok k when k = Codec.net_hello_kind -> Codec.decode ~kind:k parse_hello bytes
  | Ok k ->
      Error
        (Codec.Wrong_kind
           { expected = "net request"; got = Codec.kind_name k })

(* ------------------------------ responses ----------------------------- *)

let err_code_to_int = function
  | Unsupported -> 0
  | Malformed -> 1
  | Overloaded -> 2
  | Internal -> 3

let err_code_of_int = function
  | 0 -> Unsupported
  | 1 -> Malformed
  | 2 -> Overloaded
  | 3 -> Internal
  | c -> Codec.corrupt "unknown error code %d" c

(* tag, epoch, accepted, dup flag *)
let ack_frame_size = Codec.header_size + 1 + 8 + 8 + 1

let write_ack buf ~epoch ~accepted ~dup =
  if Bytes.length buf < ack_frame_size then
    invalid_arg "Net.Frame.write_ack: buffer too small";
  let p = Codec.header_size in
  Bytes.set_uint8 buf p 0;
  Bytes.set_int64_be buf (p + 1) (Int64.of_int epoch);
  Bytes.set_int64_be buf (p + 9) (Int64.of_int accepted);
  Bytes.set_uint8 buf (p + 17) (if dup then 1 else 0);
  Codec.seal_into buf ~off:0 ~kind:Codec.net_reply_kind
    ~plen:(ack_frame_size - p);
  ack_frame_size

let encode_response = function
  | Ack { epoch; accepted; dup } ->
      let buf = Bytes.create ack_frame_size in
      ignore (write_ack buf ~epoch ~accepted ~dup);
      buf
  | Result { epoch; pairs } ->
      Codec.encode ~kind:Codec.net_reply_kind (fun b ->
          Codec.u8 b 1;
          Codec.int_ b epoch;
          Codec.u32 b (List.length pairs);
          List.iter
            (fun (k, v) ->
              Codec.int_ b k;
              Codec.int_ b v)
            pairs)
  | Err { code; msg } ->
      Codec.encode ~kind:Codec.net_reply_kind (fun b ->
          Codec.u8 b 2;
          Codec.u8 b (err_code_to_int code);
          Codec.bytes_ b (Bytes.of_string msg))

let decode_response bytes =
  Codec.decode ~kind:Codec.net_reply_kind
    (fun r ->
      match Codec.read_u8 r with
      | 0 ->
          let epoch = Codec.read_int r in
          let accepted = Codec.read_int r in
          if epoch < 0 || accepted < 0 then
            Codec.corrupt "negative ack fields (%d, %d)" epoch accepted;
          let dup =
            match Codec.read_u8 r with
            | 0 -> false
            | 1 -> true
            | d -> Codec.corrupt "ack dup flag %d not 0/1" d
          in
          Ack { epoch; accepted; dup }
      | 1 ->
          let epoch = Codec.read_int r in
          if epoch < 0 then Codec.corrupt "negative epoch %d" epoch;
          let n = Codec.read_u32 r in
          let pairs =
            List.init n (fun _ ->
                let k = Codec.read_int r in
                let v = Codec.read_int r in
                (k, v))
          in
          Result { epoch; pairs }
      | 2 ->
          let code = err_code_of_int (Codec.read_u8 r) in
          let msg = Bytes.to_string (Codec.read_bytes r) in
          Err { code; msg }
      | t -> Codec.corrupt "unknown reply tag %d" t)
    bytes

(* ------------------------------ pushes -------------------------------- *)

(* One exact-size frame: it waits in every subscriber's queue. *)
let write_push ~tag ~epoch ~w blob =
  let p = Codec.header_size and len = Bytes.length blob in
  if len > 0xFFFFFFFF then invalid_arg "Wire.Codec.u32: out of range";
  let buf = Bytes.create (p + 1 + 8 + 8 + 4 + len) in
  Bytes.set_uint8 buf p tag;
  Bytes.set_int64_be buf (p + 1) (Int64.of_int epoch);
  Bytes.set_int64_be buf (p + 9) (Int64.of_int w);
  Bytes.set_int32_be buf (p + 17) (Int32.of_int len);
  Bytes.blit blob 0 buf (p + 21) len;
  Codec.seal_into buf ~off:0 ~kind:Codec.net_delta_kind ~plen:(21 + len);
  buf

let encode_push = function
  | Snapshot { epoch; published; blob } -> write_push ~tag:0 ~epoch ~w:published blob
  | Delta { epoch; weight; blob } -> write_push ~tag:1 ~epoch ~w:weight blob

let parse_push r =
  let tag = Codec.read_u8 r in
  let epoch = Codec.read_int r in
  let w = Codec.read_int r in
  if epoch < 0 || w < 0 then
    Codec.corrupt "negative push fields (%d, %d)" epoch w;
  let blob = Codec.read_bytes r in
  match tag with
  | 0 -> Snapshot { epoch; published = w; blob }
  | 1 -> Delta { epoch; weight = w; blob }
  | t -> Codec.corrupt "unknown push tag %d" t

let decode_push_sub bytes ~off ~len =
  Codec.decode_sub ~kind:Codec.net_delta_kind parse_push bytes ~off ~len

let decode_push bytes = decode_push_sub bytes ~off:0 ~len:(Bytes.length bytes)
