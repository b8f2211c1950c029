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

(* ------------------------------ requests ------------------------------ *)

let encode_request = function
  | Batch { session; seq; ctx; keys } ->
      if seq < 0 then invalid_arg "Net.Frame: negative batch seq";
      Codec.encode ~kind:Codec.net_batch_kind (fun b ->
          Codec.i64 b session;
          Codec.int_ b seq;
          Codec.i64 b ctx.Obs.Span.trace_id;
          Codec.i64 b ctx.Obs.Span.parent;
          Codec.u32 b (Array.length keys);
          Array.iter (fun k -> Codec.int_ b k) keys)
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

let parse_batch r =
  let session = Codec.read_i64 r in
  let seq = Codec.read_int r in
  if seq < 0 then Codec.corrupt "negative batch seq %d" seq;
  let trace_id = Codec.read_i64 r in
  let parent = Codec.read_i64 r in
  (* An untraced batch has no parent span to point at. *)
  if Int64.equal trace_id 0L && not (Int64.equal parent 0L) then
    Codec.corrupt "net-batch with zero trace id but parent %Lx" parent;
  let n = Codec.read_count r ~elt_bytes:8 in
  let keys = Array.init n (fun _ -> Codec.read_int r) in
  Batch { session; seq; ctx = { Obs.Span.trace_id; parent }; keys }

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
  | Ok k when k = Codec.net_batch_kind -> Codec.decode ~kind:k parse_batch bytes
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

let encode_response = function
  | Ack { epoch; accepted; dup } ->
      Codec.encode ~kind:Codec.net_reply_kind (fun b ->
          Codec.u8 b 0;
          Codec.int_ b epoch;
          Codec.int_ b accepted;
          Codec.u8 b (if dup then 1 else 0))
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

let encode_push = function
  | Snapshot { epoch; published; blob } ->
      Codec.encode ~kind:Codec.net_delta_kind (fun b ->
          Codec.u8 b 0;
          Codec.int_ b epoch;
          Codec.int_ b published;
          Codec.bytes_ b blob)
  | Delta { epoch; weight; blob } ->
      Codec.encode ~kind:Codec.net_delta_kind (fun b ->
          Codec.u8 b 1;
          Codec.int_ b epoch;
          Codec.int_ b weight;
          Codec.bytes_ b blob)

let decode_push bytes =
  Codec.decode ~kind:Codec.net_delta_kind
    (fun r ->
      let tag = Codec.read_u8 r in
      let epoch = Codec.read_int r in
      let w = Codec.read_int r in
      if epoch < 0 || w < 0 then
        Codec.corrupt "negative push fields (%d, %d)" epoch w;
      let blob = Codec.read_bytes r in
      match tag with
      | 0 -> Snapshot { epoch; published = w; blob }
      | 1 -> Delta { epoch; weight = w; blob }
      | t -> Codec.corrupt "unknown push tag %d" t)
    bytes
