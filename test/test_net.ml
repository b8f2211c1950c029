(* The served tier, tested at three depths:

   - the frame vocabulary in isolation (roundtrips, schema validation, and
     the Unknown_kind regression — a foreign kind tag must surface as its
     own error, not a parse failure);
   - the raw protocol against a live server (acks, queries, and the
     adversarial-peer suite: truncated frames, flipped checksums, oversized
     declared lengths, slow-loris headers, abrupt disconnects — every one
     must end in a clean error/reset with the server still serving);
   - the full system (batching client + follower replica): the follower
     never leads the leader (the IVL envelope), and after the leader's
     drain the two are bit-for-bit equal;
   - the hostile system: the effectively-once dedup window (regression
     first: the sessionless double-count it kills), the fault-injecting
     chaos proxy, the replica's self-healing resync, and the served chaos
     soak — kills, partitions and wire faults, with the four IVL verdicts
     (conservation, ack envelope, replica envelope, convergence) still
     exact. *)

module Codec = Wire.Codec
module Frame = Net.Frame
module Conn = Net.Conn
module MC = Pipeline.Targets.Counter
module Srv = Net.Server.Make (MC)
module Rep = Net.Replica.Make (MC)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every batch is deduplicated by (session, seq), so each call without an
   explicit session gets a session of its own: protocol tests that resend
   the same keys are not answered as retries. Effectively-once tests pass
   their session and seq explicitly. *)
let next_session = Atomic.make 0x7E57_0000

let batch ?session ?(seq = 0) ?(ctx = Obs.Span.zero) keys =
  let session =
    match session with
    | Some s -> s
    | None -> Int64.of_int (Atomic.fetch_and_add next_session 1)
  in
  Frame.Batch { session; seq; ctx; keys }

(* ------------------------------------------------------------------ *)
(* Frame vocabulary                                                    *)
(* ------------------------------------------------------------------ *)

let roundtrip_request r =
  match Frame.decode_request (Frame.encode_request r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "request decode: %s" (Codec.error_to_string e)

let roundtrip_response r =
  match Frame.decode_response (Frame.encode_response r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "response decode: %s" (Codec.error_to_string e)

let roundtrip_push p =
  match Frame.decode_push (Frame.encode_push p) with
  | Ok p' -> p'
  | Error e -> Alcotest.failf "push decode: %s" (Codec.error_to_string e)

let test_request_roundtrip () =
  (match roundtrip_request (batch ~session:0L [| 1; 2; 3; 1000000; 0 |]) with
  | Frame.Batch { keys = ks; session; seq; ctx } ->
      check_int "batch len" 5 (Array.length ks);
      check_int "batch last" 0 ks.(4);
      check_int "batch big" 1000000 ks.(3);
      check_bool "zero session" true (Int64.equal session 0L);
      check_int "zero seq" 0 seq;
      check_bool "untraced ctx" true (Obs.Span.is_zero ctx)
  | _ -> Alcotest.fail "not a batch");
  (match roundtrip_request (batch [||]) with
  | Frame.Batch { keys = ks; _ } -> check_int "empty batch" 0 (Array.length ks)
  | _ -> Alcotest.fail "not a batch");
  (* The effectively-once fields survive the wire, extremes included. *)
  (match
     roundtrip_request (batch ~session:Int64.max_int ~seq:max_int [| 7 |])
   with
  | Frame.Batch { session; seq; keys; _ } ->
      check_bool "session" true (Int64.equal session Int64.max_int);
      check_int "seq" max_int seq;
      check_int "keys" 7 keys.(0)
  | _ -> Alcotest.fail "not a sessioned batch");
  (match roundtrip_request (Frame.Hello { session = 0xDEADBEEFL }) with
  | Frame.Hello { session } ->
      check_bool "hello session" true (Int64.equal session 0xDEADBEEFL)
  | _ -> Alcotest.fail "not a hello");
  (match roundtrip_request (Frame.Query Frame.Total) with
  | Frame.Query Frame.Total -> ()
  | _ -> Alcotest.fail "not Total");
  (match roundtrip_request (Frame.Query (Frame.Point 42)) with
  | Frame.Query (Frame.Point 42) -> ()
  | _ -> Alcotest.fail "not Point 42");
  match roundtrip_request Frame.Subscribe with
  | Frame.Subscribe -> ()
  | _ -> Alcotest.fail "not Subscribe"

let test_response_roundtrip () =
  (match
     roundtrip_response (Frame.Ack { epoch = 7; accepted = 123; dup = false })
   with
  | Frame.Ack { epoch = 7; accepted = 123; dup = false } -> ()
  | _ -> Alcotest.fail "not the ack");
  (* The dup marker — a retried batch's ack — survives the wire. *)
  (match
     roundtrip_response (Frame.Ack { epoch = 2; accepted = 64; dup = true })
   with
  | Frame.Ack { epoch = 2; accepted = 64; dup = true } -> ()
  | _ -> Alcotest.fail "not the dup ack");
  (match
     roundtrip_response
       (Frame.Result { epoch = 3; pairs = [ (1, 10); (2, 20); (3, 30) ] })
   with
  | Frame.Result { epoch = 3; pairs = [ (1, 10); (2, 20); (3, 30) ] } -> ()
  | _ -> Alcotest.fail "not the result");
  (match roundtrip_response (Frame.Result { epoch = 0; pairs = [] }) with
  | Frame.Result { epoch = 0; pairs = [] } -> ()
  | _ -> Alcotest.fail "not the empty result");
  List.iter
    (fun code ->
      match roundtrip_response (Frame.Err { code; msg = "boom" }) with
      | Frame.Err { code = c; msg = "boom" } when c = code -> ()
      | _ -> Alcotest.fail "err code mangled")
    [ Frame.Unsupported; Frame.Malformed; Frame.Overloaded; Frame.Internal ]

let test_push_roundtrip () =
  let blob = Bytes.of_string "\x00\x01\xff sketch bytes \x7f" in
  (match roundtrip_push (Frame.Snapshot { epoch = 12; published = 999; blob })
   with
  | Frame.Snapshot { epoch = 12; published = 999; blob = b } ->
      check_bool "snapshot blob" true (Bytes.equal blob b)
  | _ -> Alcotest.fail "not the snapshot");
  (match roundtrip_push (Frame.Delta { epoch = 13; weight = 8; blob }) with
  | Frame.Delta { epoch = 13; weight = 8; blob = b } ->
      check_bool "delta blob" true (Bytes.equal blob b)
  | _ -> Alcotest.fail "not the delta");
  (* The bytes are the schema's, field by field through Codec's writers. *)
  let reference tag epoch w =
    Codec.encode ~kind:Codec.net_delta_kind (fun b ->
        Codec.u8 b tag;
        Codec.int_ b epoch;
        Codec.int_ b w;
        Codec.bytes_ b blob)
  in
  Alcotest.(check bytes) "snapshot bytes" (reference 0 12 999)
    (Frame.encode_push (Frame.Snapshot { epoch = 12; published = 999; blob }));
  Alcotest.(check bytes) "delta bytes" (reference 1 13 8)
    (Frame.encode_push (Frame.Delta { epoch = 13; weight = 8; blob }))

let test_frame_schema_validation () =
  (* A response frame fed to the request decoder is a *known* foreign
     kind: Wrong_kind, not Unknown_kind. *)
  (match
     Frame.decode_request
       (Frame.encode_response (Frame.Ack { epoch = 0; accepted = 0; dup = false }))
   with
  | Error (Codec.Wrong_kind _) -> ()
  | Ok _ -> Alcotest.fail "response decoded as request"
  | Error e -> Alcotest.failf "expected Wrong_kind: %s" (Codec.error_to_string e));
  (* Out-of-range quantile: header and checksum fine, schema corrupt. *)
  let bad_phi =
    Codec.encode ~kind:Codec.net_query_kind (fun w ->
        Codec.u8 w 2;
        Codec.float_ w 1.5)
  in
  (match Frame.decode_request bad_phi with
  | Error (Codec.Corrupt _) -> ()
  | _ -> Alcotest.fail "phi=1.5 accepted");
  (* Unknown query tag. *)
  let bad_tag = Codec.encode ~kind:Codec.net_query_kind (fun w -> Codec.u8 w 9) in
  (match Frame.decode_request bad_tag with
  | Error (Codec.Corrupt _) -> ()
  | _ -> Alcotest.fail "tag 9 accepted");
  (* Negative batch count cannot be encoded, but a truncated batch can. *)
  let good = Frame.encode_request (batch [| 1; 2; 3 |]) in
  let cut = Bytes.sub good 0 (Bytes.length good - 1) in
  match Frame.decode_request cut with
  | Error (Codec.Truncated _) -> ()
  | _ -> Alcotest.fail "truncated batch accepted"

let test_span_ctx_wire () =
  (* Every batch rides the one net-batch frame, and its context survives
     the wire exactly, alongside the effectively-once fields — a sampled
     context and the untraced zero alike. *)
  let roundtrip ctx =
    let bytes = Frame.encode_request (batch ~session:9L ~seq:4 ~ctx [| 1; 2; 3 |]) in
    (match Codec.peek bytes with
    | Ok (name, _) -> Alcotest.(check string) "one batch kind" "net-batch" name
    | Error e -> Alcotest.failf "peek: %s" (Codec.error_to_string e));
    match Frame.decode_request bytes with
    | Ok (Frame.Batch { session; seq; ctx = ctx'; keys }) ->
        check_bool "session" true (Int64.equal session 9L);
        check_int "seq" 4 seq;
        check_bool "trace id" true
          (Int64.equal ctx'.Obs.Span.trace_id ctx.Obs.Span.trace_id);
        check_bool "parent" true
          (Int64.equal ctx'.Obs.Span.parent ctx.Obs.Span.parent);
        check_int "keys" 3 (Array.length keys)
    | Ok _ -> Alcotest.fail "not a batch"
    | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e)
  in
  roundtrip
    { Obs.Span.trace_id = 0x1122334455667788L; parent = 0x0102030405060708L };
  roundtrip { Obs.Span.trace_id = 1L; parent = 0L };
  roundtrip Obs.Span.zero;
  (* A parent span without a trace is the one malformed context. *)
  let orphan =
    Codec.encode ~kind:Codec.net_batch_kind (fun w ->
        Codec.i64 w 9L;
        Codec.int_ w 4;
        Codec.i64 w 0L;
        Codec.i64 w 5L;
        Codec.u32 w 0)
  in
  match Frame.decode_request orphan with
  | Error (Codec.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "zero trace id with a parent accepted"
  | Error e -> Alcotest.failf "expected Corrupt: %s" (Codec.error_to_string e)

(* The net-batch schema written field by field with Codec's generic
   writer: the reference the batch codec's bytes are held to, and a way to
   seal frames no encoder would write (a lying count, a negative seq, a
   key past the native range). *)
let reference_batch ?(session = 0L) ?(seq = 0L) ?(trace_id = 0L) ?(parent = 0L)
    ~count keys =
  Codec.encode ~kind:Codec.net_batch_kind (fun w ->
      Codec.i64 w session;
      Codec.i64 w seq;
      Codec.i64 w trace_id;
      Codec.i64 w parent;
      Codec.u32 w count;
      Array.iter (Codec.i64 w) keys)

(* A hand-sealed batch whose u32 key count is [count] and whose payload
   holds [keys] keys: checksum and framing valid, only the count lies. *)
let sealed_batch ~count keys =
  reference_batch ~count (Array.map Int64.of_int keys)

let test_batch_count_bounded () =
  (* A 4-billion-key count behind one real key must fail on the count,
     before a 32 GiB key array is requested. *)
  (match Frame.decode_request (sealed_batch ~count:0xFFFFFFFF [| 7 |]) with
  | Error (Codec.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "oversized count accepted"
  | Error e -> Alcotest.failf "expected Truncated: %s" (Codec.error_to_string e));
  (match Frame.decode_request (sealed_batch ~count:3 [| 7; 8 |]) with
  | Error (Codec.Truncated _) -> ()
  | _ -> Alcotest.fail "count one past the payload accepted");
  (* A count that exactly fills the payload is the boundary, and decodes. *)
  match Frame.decode_request (sealed_batch ~count:2 [| 7; 8 |]) with
  | Ok (Frame.Batch { keys; _ }) ->
      Alcotest.(check (array int)) "exact count" [| 7; 8 |] keys
  | Ok _ -> Alcotest.fail "not a batch"
  | Error e -> Alcotest.failf "exact count: %s" (Codec.error_to_string e)

(* The pooled encoder writes the bytes of [encode_request (Batch …)],
   which are the schema's field by field, for every size a sender ships,
   traced or not, into a buffer still holding a longer frame. *)
let test_batch_codec_parity () =
  let rng = Random.State.make [| 31 |] in
  let pooled = Bytes.make (Frame.batch_frame_size 256) '\xAA' in
  for round = 0 to 399 do
    let n = if round < 257 then round else Random.State.int rng 257 in
    let keys = Array.init n (fun _ -> Random.State.bits rng - (1 lsl 29)) in
    let session = Random.State.int64 rng Int64.max_int in
    let seq = Random.State.bits rng in
    let ctx =
      if round mod 2 = 0 then Obs.Span.zero
      else
        {
          Obs.Span.trace_id = Int64.succ (Random.State.int64 rng Int64.max_int);
          parent = Random.State.int64 rng Int64.max_int;
        }
    in
    let len = Frame.write_batch pooled ~session ~seq ~ctx keys ~len:n in
    let fresh = Frame.encode_request (Frame.Batch { session; seq; ctx; keys }) in
    let reference =
      reference_batch ~session ~seq:(Int64.of_int seq) ~trace_id:ctx.trace_id
        ~parent:ctx.parent ~count:n (Array.map Int64.of_int keys)
    in
    check_int "frame size" (Frame.batch_frame_size n) len;
    Alcotest.(check string)
      (Printf.sprintf "pooled = encode_request (%d keys)" n)
      (Bytes.to_string fresh) (Bytes.sub_string pooled 0 len);
    Alcotest.(check string)
      (Printf.sprintf "encode_request = schema (%d keys)" n)
      (Bytes.to_string reference) (Bytes.to_string fresh)
  done;
  (* a key array longer than the batch: only the first [len] keys go out *)
  let len = Frame.write_batch pooled ~session:1L ~seq:2 ~ctx:Obs.Span.zero
      [| 5; 6; 7 |] ~len:2 in
  Alcotest.(check string) "prefix of the key array"
    (Bytes.to_string (Frame.encode_request (batch ~session:1L ~seq:2 [| 5; 6 |])))
    (Bytes.sub_string pooled 0 len);
  Alcotest.(check string) "ack: pooled = encode_response"
    (Bytes.to_string
       (Frame.encode_response (Frame.Ack { epoch = 7; accepted = 3; dup = true })))
    (let b = Bytes.create Frame.ack_frame_size in
     Bytes.sub_string b 0 (Frame.write_ack b ~epoch:7 ~accepted:3 ~dup:true))

(* Every malformed batch gives the same error parsed in place, from the
   middle of a larger buffer, as decode_request gives on its own copy. *)
let test_batch_codec_error_parity () =
  let good = reference_batch ~session:3L ~seq:4L ~count:3 [| 1L; 2L; 3L |] in
  let flip bytes i bit =
    let b = Bytes.copy bytes in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit));
    b
  in
  let cases =
    [
      ("truncated", Bytes.sub good 0 (Bytes.length good - 3));
      ("truncated header", Bytes.sub good 0 9);
      ("payload bit flip", flip good 30 2);
      ("checksum bit flip", flip good 11 0);
      ("version bit flip", flip good 4 1);
      ("seq < 0", reference_batch ~seq:(-1L) ~count:1 [| 9L |]);
      ("zero trace id with a parent", reference_batch ~parent:5L ~count:1 [| 9L |]);
      ("count past the payload", reference_batch ~count:4 [| 1L; 2L; 3L |]);
      ("key past the native range", reference_batch ~count:2 [| 1L; Int64.max_int |]);
      ("trailing bytes", Bytes.cat good (Bytes.make 2 '\000'));
    ]
  in
  let b = Frame.batch () in
  List.iter
    (fun (what, frame) ->
      let fresh =
        match Frame.decode_request frame with
        | Ok _ -> Alcotest.failf "%s: decode_request accepted it" what
        | Error e -> e
      in
      let padded = Bytes.concat Bytes.empty [ Bytes.make 5 'x'; frame; Bytes.make 7 'y' ] in
      (match Frame.decode_batch b padded ~off:5 ~len:(Bytes.length frame) with
      | Ok () -> Alcotest.failf "%s: parsed in place" what
      | Error e ->
          Alcotest.(check string) what (Codec.error_to_string fresh)
            (Codec.error_to_string e);
          check_bool (what ^ ": same constructor") true (e = fresh)))
    cases;
  (* and a good frame parses in place to what decode_request returns *)
  let padded = Bytes.cat (Bytes.make 3 'z') good in
  match (Frame.decode_request good, Frame.decode_batch b padded ~off:3 ~len:(Bytes.length good)) with
  | Ok (Frame.Batch { session; seq; ctx; keys }), Ok () ->
      check_bool "session" true (Int64.equal session b.session);
      check_int "seq" seq b.seq;
      check_bool "ctx" true (ctx = b.ctx);
      Alcotest.(check (array int)) "keys" keys (Array.sub b.keys 0 b.count)
  | _ -> Alcotest.fail "good frame"

(* A stream of three frames reaches the Conn split at every byte offset,
   and all in one write: each split decodes to the same requests. Before
   the second part is written the receiver takes every frame the first
   part completes, so its buffer holds a partial header or payload when
   the rest arrives. *)
let test_conn_split_stream () =
  let reqs =
    [
      Frame.Hello { session = 21L };
      batch ~session:21L ~seq:0 [| 4; 5; 6; 7; 8 |];
      Frame.Query (Frame.Point 42);
    ]
  in
  let frames = List.map Frame.encode_request reqs in
  let stream = Bytes.concat Bytes.empty frames in
  (* where each frame ends in the stream *)
  let ends =
    Array.of_list (List.map Bytes.length frames) |> Array.to_seq
    |> Seq.scan ( + ) 0 |> Seq.drop 1 |> Array.of_seq
  in
  let total = Bytes.length stream in
  let receive rx =
    match Conn.recv_view rx with
    | Error e -> Alcotest.failf "recv: %s" (Conn.recv_error_to_string e)
    | Ok v -> Frame.decode_request (Bytes.sub v.buf v.off v.len)
  in
  let run split =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let tx = Conn.of_fd a and rx = Conn.of_fd b in
    Conn.set_read_timeout rx 5.0;
    let got = ref [] in
    (* receive every frame that ends within the first [limit] bytes *)
    let take_until limit =
      while List.length !got < 3 && ends.(List.length !got) <= limit do
        got := receive rx :: !got
      done
    in
    ignore (Unix.write a stream 0 split);
    take_until split;
    ignore (Unix.write a stream split (total - split));
    take_until total;
    let got = List.rev !got in
    List.iter2
      (fun want got ->
        match got with
        | Ok r -> check_bool (Printf.sprintf "split at %d" split) true (r = want)
        | Error e ->
            Alcotest.failf "split at %d: %s" split (Codec.error_to_string e))
      reqs got;
    check_int "frames in" 3 (Conn.frames_in rx);
    check_int "bytes in" total (Conn.bytes_in rx);
    check_bool "nothing left over" false (Conn.buffered rx);
    Conn.close tx;
    (match Conn.recv_view rx with
    | Error `Eof -> ()
    | _ -> Alcotest.failf "split at %d: no Eof after the stream" split);
    Conn.close rx
  in
  for split = 0 to total do
    run split
  done

(* Satellite regression: a kind tag this build does not know at all. *)
let test_unknown_kind () =
  check_bool "known net_batch" true (Codec.known_kind Codec.net_batch_kind);
  check_bool "known net_delta" true (Codec.known_kind Codec.net_delta_kind);
  check_bool "99 unknown" false (Codec.known_kind 99);
  let foreign = Codec.encode ~kind:99 (fun w -> Codec.u8 w 0) in
  (match Codec.frame_kind foreign with
  | Error (Codec.Unknown_kind 99) -> ()
  | Error e -> Alcotest.failf "expected Unknown_kind 99: %s" (Codec.error_to_string e)
  | Ok k -> Alcotest.failf "kind 99 accepted as %d" k);
  (match Frame.decode_request foreign with
  | Error (Codec.Unknown_kind 99) -> ()
  | _ -> Alcotest.fail "decode_request must surface Unknown_kind");
  (* Kind 18 (a retired second batch kind) is foreign to this build. *)
  check_bool "18 unknown" false (Codec.known_kind 18);
  Alcotest.(check string) "18 unnamed" "unknown(18)" (Codec.kind_name 18);
  (match Frame.decode_request (Codec.encode ~kind:18 (fun w -> Codec.u8 w 0)) with
  | Error (Codec.Unknown_kind 18) -> ()
  | _ -> Alcotest.fail "kind 18 must decode to Unknown_kind 18");
  (* Kinds 2, 4 and 5 (hyperloglog, quantiles, space-saving) are retired
     sketch kinds, never reused. *)
  List.iter
    (fun k ->
      check_bool (Printf.sprintf "%d unknown" k) false (Codec.known_kind k);
      Alcotest.(check string)
        (Printf.sprintf "%d unnamed" k)
        (Printf.sprintf "unknown(%d)" k)
        (Codec.kind_name k))
    [ 2; 4; 5 ];
  (* The checksum is validated even for unknown kinds? No: frame_kind
     dispatches before checksum, and the distinct error is the point. *)
  check_bool "message names the tag" true
    (String.length (Codec.error_to_string (Codec.Unknown_kind 99)) > 0
    &&
    match String.index_opt (Codec.error_to_string (Codec.Unknown_kind 99)) '9'
    with
    | Some _ -> true
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Live-server helpers                                                 *)
(* ------------------------------------------------------------------ *)

let start_server ?metrics ?(shards = 2) ?(batch = 8) ?(read_timeout = 5.0)
    ?max_conns () =
  Srv.create ?metrics ?max_conns ~read_timeout
    ~eval:(fun _ _ -> None)
    ~make_engine:(fun ~on_merge -> Srv.P.create ~shards ~batch ~on_merge ())
    ()

let dial srv =
  let c = Conn.connect ~host:"127.0.0.1" ~port:(Srv.port srv) in
  Conn.set_read_timeout c 5.0;
  c

let request c req =
  if not (Conn.send c (Frame.encode_request req)) then
    Alcotest.fail "send failed";
  match Conn.recv c with
  | Error e -> Alcotest.failf "recv: %s" (Conn.recv_error_to_string e)
  | Ok frame -> (
      match Frame.decode_response frame with
      | Ok r -> r
      | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e))

let expect_ack c req =
  match request c req with
  | Frame.Ack { accepted; _ } -> accepted
  | Frame.Err { msg; _ } -> Alcotest.failf "err instead of ack: %s" msg
  | _ -> Alcotest.fail "not an ack"

(* ------------------------------------------------------------------ *)
(* Raw protocol against a live server                                  *)
(* ------------------------------------------------------------------ *)

let test_server_batch_ack () =
  let srv = start_server () in
  let c = dial srv in
  let keys = Array.init 100 (fun i -> i land 15) in
  check_int "all accepted" 100 (expect_ack c (batch keys));
  check_int "empty batch acked" 0 (expect_ack c (batch [||]));
  (* Total is the engine's published weight: it can lag the acked count
     (keys not merged yet), but never exceed it — the envelope. *)
  (match request c (Frame.Query Frame.Total) with
  | Frame.Result { pairs = [ (0, w) ]; _ } ->
      check_bool "0 <= total <= acked" true (w >= 0 && w <= 100)
  | _ -> Alcotest.fail "total did not answer");
  (* The counter sketch cannot answer Point: a typed refusal, not a hang. *)
  (match request c (Frame.Query (Frame.Point 3)) with
  | Frame.Err { code = Frame.Unsupported; _ } -> ()
  | _ -> Alcotest.fail "Point on counter must be Unsupported");
  Conn.close c;
  let stats = Srv.stop srv in
  check_int "ingested" 100 stats.Srv.ingested;
  check_int "shed" 0 stats.Srv.shed;
  (* Conservation after drain: everything acked is published. *)
  let est = Srv.P.stats (Srv.engine srv) in
  check_int "published = ingested" 100 est.Srv.P.published

(* Total is read from the engine, under the merge mutex, like Point: once
   a merge has landed, a wire Total returns the engine's published weight
   even while the merge's on_merge hook (the WAL append and the fan-out)
   is still held at a gate. *)
let test_server_total_reads_engine () =
  let gate = Atomic.make false in
  let srv =
    Srv.create ~read_timeout:5.0
      ~eval:(fun _ _ -> None)
      ~make_engine:(fun ~on_merge ->
        Srv.P.create ~shards:1 ~batch:4
          ~on_merge:(fun ~ctx ~epoch ~weight ~blob ->
            while not (Atomic.get gate) do
              Unix.sleepf 0.001
            done;
            on_merge ~ctx ~epoch ~weight ~blob)
          ())
      ()
  in
  let eng = Srv.engine srv in
  let c = dial srv in
  check_int "acked" 8 (expect_ack c (batch (Array.init 8 Fun.id)));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Srv.P.published eng = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let published = Srv.P.published eng in
  let answer = request c (Frame.Query Frame.Total) in
  Atomic.set gate true;
  Conn.close c;
  ignore (Srv.stop srv);
  check_bool "a merge landed behind the held hook" true (published > 0);
  match answer with
  | Frame.Result { pairs = [ (0, w) ]; _ } ->
      check_int "Total = published while the hook is held" published w
  | _ -> Alcotest.fail "total did not answer"

(* A frame enters the engine one slice per shard. With shard 0's worker
   dead, its slice is shed and the ack counts exactly the keys the live
   shards took: the growth of Σ enqueued. *)
let test_server_partial_ack_dead_shard () =
  let srv =
    Srv.create ~read_timeout:5.0
      ~eval:(fun _ _ -> None)
      ~make_engine:(fun ~on_merge ->
        Srv.P.create ~shards:3 ~batch:8 ~on_merge
          ~on_tick:(fun ~shard ->
            if shard = 0 then
              raise (Conc.Chaos.Killed { domain = 0; point = 1 }))
          ())
      ()
  in
  let eng = Srv.engine srv in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Srv.P.dead eng <> [ 0 ] && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  check_bool "shard 0 dead" true (Srv.P.dead eng = [ 0 ]);
  let enqueued () =
    Array.fold_left
      (fun a (s : Srv.P.shard_stats) -> a + s.Srv.P.enqueued)
      0 (Srv.P.stats eng).Srv.P.shards
  in
  let c = dial srv in
  let before = enqueued () in
  let accepted = expect_ack c (batch (Array.init 300 (fun i -> i * 11))) in
  check_int "ack = growth of Σ enqueued" (enqueued () - before) accepted;
  check_bool "dead shard's keys shed, the rest taken" true
    (accepted > 0 && accepted < 300);
  Conn.close c;
  let stats = Srv.stop srv in
  check_int "ingested" accepted stats.Srv.ingested;
  check_int "shed" (300 - accepted) stats.Srv.shed

let test_server_unknown_kind_over_wire ~kind () =
  let srv = start_server () in
  let c = dial srv in
  check_int "warmup" 4 (expect_ack c (batch [| 1; 2; 3; 4 |]));
  let foreign = Codec.encode ~kind (fun w -> Codec.u8 w 1) in
  check_bool "send foreign" true (Conn.send c foreign);
  (match Conn.recv c with
  | Ok frame -> (
      match Frame.decode_response frame with
      | Ok (Frame.Err { code = Frame.Unsupported; _ }) -> ()
      | Ok _ -> Alcotest.fail "foreign kind must be Err Unsupported"
      | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e))
  | Error e -> Alcotest.failf "no error response: %s" (Conn.recv_error_to_string e));
  (* After a framing error the stream is reset. *)
  (match Conn.recv c with
  | Error `Eof -> ()
  | Error `Timeout -> Alcotest.fail "connection not reset"
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unexpected frame after reset");
  Conn.close c;
  let stats = Srv.stop srv in
  check_bool "decode error counted" true (stats.Srv.decode_errors >= 1);
  check_int "warmup batch survived" 4
    (Srv.P.stats (Srv.engine srv)).Srv.P.published

(* Serving connections must not grow the registry: every connection's
   bytes and frames land in the four aggregate net_* series, so 200
   connections leave as many samples as one. *)
let test_registry_does_not_grow_with_connections () =
  let reg = Obs.Registry.create () in
  let srv = start_server ~metrics:reg () in
  let serve_one i =
    let c = dial srv in
    let session = Int64.of_int (0xC0_0000 + i) in
    check_int "hello acked" 0 (expect_ack c (Frame.Hello { session }));
    check_int "batch acked" 3 (expect_ack c (batch ~session ~seq:0 [| 1; 2; 3 |]));
    Conn.close c
  in
  let samples () = List.length (Obs.Registry.snapshot reg).Obs.Snapshot.samples in
  serve_one 0;
  let after_first = samples () in
  for i = 1 to 199 do
    serve_one i
  done;
  check_int "samples after 200 connections" after_first (samples ());
  let snap = Obs.Registry.snapshot reg in
  let st = Srv.stats srv in
  check_int "two frames in per connection" 400 st.Srv.frames_in;
  check_int "net_frames_in_total = stats frames_in" st.Srv.frames_in
    (Obs.Snapshot.counter_value snap "net_frames_in_total");
  check_int "net_bytes_in_total = stats bytes_in" st.Srv.bytes_in
    (Obs.Snapshot.counter_value snap "net_bytes_in_total");
  ignore (Srv.stop srv)

(* ------------------------------------------------------------------ *)
(* Adversarial peers                                                   *)
(* ------------------------------------------------------------------ *)

(* Every hostile move ends in a clean reset; the proof that no handler
   domain leaked or deadlocked is that a well-behaved client still gets
   served afterwards and [Srv.stop] (which joins every domain) returns. *)

let raw_dial srv =
  let c = Conn.connect ~host:"127.0.0.1" ~port:(Srv.port srv) in
  Conn.set_read_timeout c 2.0;
  c

let send_raw c bytes = ignore (Conn.send c bytes)

let expect_err_malformed c what =
  match Conn.recv c with
  | Ok frame -> (
      match Frame.decode_response frame with
      | Ok (Frame.Err { code = Frame.Malformed; _ }) -> ()
      | Ok r ->
          Alcotest.failf "%s: expected Err Malformed, got %s" what
            (match r with
            | Frame.Ack _ -> "Ack"
            | Frame.Result _ -> "Result"
            | Frame.Err { code; _ } -> Frame.err_code_to_string code)
      | Error e -> Alcotest.failf "%s: decode: %s" what (Codec.error_to_string e))
  | Error e ->
      Alcotest.failf "%s: expected a response, got %s" what
        (Conn.recv_error_to_string e)

let expect_reset c what =
  match Conn.recv c with
  | Error (`Eof | `Bad_header) -> ()
  | Error `Timeout -> Alcotest.failf "%s: connection not reset" what
  | Error (`Oversized _) -> ()
  | Ok _ -> Alcotest.failf "%s: unexpected frame after reset" what

(* Subscribe is a bare kind: a subscribe frame with bytes in its payload
   decodes as Corrupt, and a live server answers it Err Malformed instead
   of turning the connection into a replication stream. *)
let test_subscribe_payload_malformed () =
  let padded =
    Codec.encode ~kind:Codec.net_subscribe_kind (fun b -> Codec.int_ b 0)
  in
  (match Frame.decode_request padded with
  | Error (Codec.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "subscribe with a payload decoded"
  | Error e -> Alcotest.failf "expected Corrupt: %s" (Codec.error_to_string e));
  let srv = start_server () in
  let c = raw_dial srv in
  send_raw c padded;
  expect_err_malformed c "subscribe payload";
  Conn.close c;
  let stats = Srv.stop srv in
  check_int "no subscriber registered" 0 stats.Srv.subscribers;
  check_int "decode error counted" 1 stats.Srv.decode_errors

(* Query tags 2 (quantile) and 3 (top) are retired: each decodes as
   Corrupt, a live server answers it Err Malformed and resets, and a fresh
   connection is still served. *)
let test_retired_query_tags_malformed () =
  let srv = start_server () in
  List.iter
    (fun (tag, payload) ->
      let what = Printf.sprintf "query tag %d" tag in
      let frame =
        Codec.encode ~kind:Codec.net_query_kind (fun b ->
            Codec.u8 b tag;
            payload b)
      in
      (match Frame.decode_request frame with
      | Error (Codec.Corrupt msg) ->
          check_bool (what ^ " named") true
            (String.starts_with ~prefix:"unknown query tag" msg)
      | Ok _ -> Alcotest.failf "%s decoded" what
      | Error e -> Alcotest.failf "%s: %s" what (Codec.error_to_string e));
      let c = raw_dial srv in
      send_raw c frame;
      expect_err_malformed c what;
      expect_reset c what;
      Conn.close c)
    [ (2, fun b -> Codec.float_ b 0.5); (3, fun b -> Codec.int_ b 10) ];
  let c = dial srv in
  check_int "fresh connection served" 3 (expect_ack c (batch [| 1; 2; 3 |]));
  Conn.close c;
  let stats = Srv.stop srv in
  check_int "decode errors counted" 2 stats.Srv.decode_errors

let test_adversarial_peers () =
  (* Short server-side read timeout so the slow-loris case resolves fast. *)
  let srv = start_server ~read_timeout:0.4 () in
  let good = Frame.encode_request (batch [| 1; 2; 3; 4; 5 |]) in

  (* 1. Truncated frame then FIN: server sees EOF mid-frame, resets. *)
  let c = raw_dial srv in
  ignore (Unix.write (Conn.fd c) good 0 10);
  Conn.close c;

  (* 2. Bit-flipped payload: checksum mismatch, answered Err Malformed,
     then reset. *)
  let c = raw_dial srv in
  let flipped = Bytes.copy good in
  let off = Codec.header_size + 1 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x40));
  send_raw c flipped;
  expect_err_malformed c "bit flip";
  expect_reset c "bit flip";
  Conn.close c;

  (* 3. Oversized declared length: a real frame whose header declares one
     byte over the cap is refused before its payload is slurped. *)
  let c = raw_dial srv in
  let big = Bytes.copy good in
  Bytes.set_int32_be big 6 (Int32.of_int (Conn.max_frame + 1));
  send_raw c big;
  expect_err_malformed c "oversized";
  expect_reset c "oversized";
  Conn.close c;

  (* 3b. A forged header declaring 64 MiB with no payload behind it: the
     cap must trip on the declared length alone. *)
  let c = raw_dial srv in
  let forged = Bytes.copy (Bytes.sub good 0 Codec.header_size) in
  Bytes.set_int32_be forged 6 (Int32.of_int (64 * 1024 * 1024));
  send_raw c forged;
  expect_err_malformed c "forged length";
  Conn.close c;

  (* 4. Slow loris: a few header bytes, then silence. The server's read
     timeout fires and the connection is reset without a response. *)
  let c = raw_dial srv in
  ignore (Unix.write (Conn.fd c) good 0 5);
  expect_reset c "slow loris";
  Conn.close c;

  (* 5. Abrupt disconnect mid-batch: half a frame, then hard close. *)
  let c = raw_dial srv in
  ignore (Unix.write (Conn.fd c) good 0 (Bytes.length good / 2));
  Unix.close (Conn.fd c);

  (* 6. Stream desync: bytes that are not an IVLW header at all. *)
  let c = raw_dial srv in
  send_raw c (Bytes.of_string "GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  expect_err_malformed c "desync";
  expect_reset c "desync";
  Conn.close c;

  (* The server survived all of it: a good client still gets served and
     ingestion still conserves. *)
  let c = dial srv in
  check_int "post-adversarial ack" 5 (expect_ack c (batch [| 9; 9; 9; 9; 9 |]));
  Conn.close c;
  let stats = Srv.stop srv in
  check_bool "decode errors counted" true (stats.Srv.decode_errors >= 3);
  check_int "only the good batch ingested" 5 stats.Srv.ingested;
  check_int "published = ingested" 5
    (Srv.P.stats (Srv.engine srv)).Srv.P.published

(* ------------------------------------------------------------------ *)
(* Batching client                                                     *)
(* ------------------------------------------------------------------ *)

let test_client_roundtrip () =
  let srv = start_server () in
  let cli =
    Net.Client.create ~conns:2 ~batch:16 ~flush_age:0.01 ~host:"127.0.0.1"
      ~port:(Srv.port srv) ()
  in
  for i = 1 to 1000 do
    check_bool "push accepted" true (Net.Client.push cli (i land 31))
  done;
  Net.Client.flush cli;
  let cs = Net.Client.stats cli in
  check_int "pushed" 1000 cs.Net.Client.pushed;
  check_int "acked" 1000 cs.Net.Client.acked;
  check_int "client shed" 0 cs.Net.Client.shed;
  check_int "client errors" 0 cs.Net.Client.errors;
  (* The query path shares the protocol but not the sender conns. *)
  (match Net.Client.query cli Frame.Total with
  | Ok (Frame.Result { pairs = [ (0, w) ]; _ }) ->
      check_bool "total within envelope" true (w >= 0 && w <= 1000)
  | Ok _ -> Alcotest.fail "total did not answer"
  | Error e -> Alcotest.failf "query: %s" e);
  Net.Client.close cli;
  ignore (Srv.stop srv);
  check_int "published = acked after drain" 1000
    (Srv.P.stats (Srv.engine srv)).Srv.P.published

let test_client_dead_server () =
  (* A client aimed at a dead port must shed, not hang: every delivery
     fails, retries run out, flush/close still return. *)
  let dead_port =
    (* Grab an ephemeral port and release it so nothing listens there. *)
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p =
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    Unix.close s;
    p
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:8 ~flush_age:0.005 ~retries:1
      ~host:"127.0.0.1" ~port:dead_port ()
  in
  for i = 1 to 50 do
    ignore (Net.Client.push cli i)
  done;
  Net.Client.close cli;
  let cs = Net.Client.stats cli in
  check_int "nothing acked" 0 cs.Net.Client.acked;
  check_bool "sheds counted" true (cs.Net.Client.shed > 0);
  check_bool "errors counted" true (cs.Net.Client.errors > 0);
  check_bool "push after close is refused" true (not (Net.Client.push cli 1))

let test_client_retries_malformed () =
  (* Regression: a retry damaged in transit is answered [Err Malformed],
     and the client must resend it, not give the batch up — otherwise a
     batch whose first attempt was applied (ack lost) is published but
     never acked. A scripted peer plays the three attempts: ack lost,
     Malformed, then the dedup window's duplicate ack. *)
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let ack ~accepted ~dup =
    Frame.encode_response (Frame.Ack { epoch = 1; accepted; dup })
  in
  let replies =
    [
      None;
      Some
        (Frame.encode_response
           (Frame.Err { code = Frame.Malformed; msg = "payload checksum mismatch" }));
      Some (ack ~accepted:8 ~dup:true);
    ]
  in
  let peer =
    Domain.spawn (fun () ->
        (* Bounded accepts: a client that stops retrying must fail the
           test, not hang it. *)
        let rec serve = function
          | [] -> ()
          | reply :: rest -> (
              match Unix.select [ lsock ] [] [] 5.0 with
              | [], _, _ -> ()
              | _ ->
                  let fd, _ = Unix.accept lsock in
                  let c = Conn.of_fd fd in
                  (match Conn.recv c with
                  | Ok _ -> ignore (Conn.send c (ack ~accepted:0 ~dup:false))
                  | Error _ -> ());
                  (match (Conn.recv c, reply) with
                  | Ok _, Some r -> ignore (Conn.send c r)
                  | _ -> ());
                  Conn.close c;
                  serve rest)
        in
        serve replies;
        Unix.close lsock)
  in
  let cli =
    (* a long flush_age: only the size trigger fires, so the 8 keys travel
       as the one batch the peer's script expects *)
    Net.Client.create ~conns:1 ~batch:8 ~flush_age:5.0 ~retries:4
      ~session:77L ~host:"127.0.0.1" ~port ()
  in
  for i = 1 to 8 do
    ignore (Net.Client.push cli i)
  done;
  Net.Client.close cli;
  Domain.join peer;
  let cs = Net.Client.stats cli in
  check_int "acked through the dedup window" 8 cs.Net.Client.acked;
  check_int "nothing shed" 0 cs.Net.Client.shed;
  check_int "nothing exhausted" 0 cs.Net.Client.exhausted;
  check_int "duplicate ack seen" 1 cs.Net.Client.duplicates_suppressed;
  check_int "two failed attempts" 2 cs.Net.Client.errors

(* ------------------------------------------------------------------ *)
(* Scripted peers for the client's sender contracts                   *)
(* ------------------------------------------------------------------ *)

let send_ack c ~accepted ~dup =
  ignore
    (Conn.send c (Frame.encode_response (Frame.Ack { epoch = 1; accepted; dup })))

(* The next batch frame's (seq, keys); [None] once the client is gone.
   Any other request (a Hello) is acked with 0 and skipped. *)
let rec recv_batch c =
  match Conn.recv c with
  | Error _ -> None
  | Ok raw -> (
      match Frame.decode_request raw with
      | Ok (Frame.Batch { seq; keys; _ }) -> Some (seq, keys)
      | _ ->
          send_ack c ~accepted:0 ~dup:false;
          recv_batch c)

(* [k] batch frames, fewer if the client leaves first. *)
let recv_batches c k = List.filter_map (fun _ -> recv_batch c) (List.init k Fun.id)

(* Answer every further batch in full until the client leaves. *)
let rec ack_rest c =
  match recv_batch c with
  | Some (_, keys) ->
      send_ack c ~accepted:(Array.length keys) ~dup:false;
      ack_rest c
  | None -> ()

(* A peer on an ephemeral loopback port that plays [scripts] in order, one
   per accepted connection, on its own domain. Each accept waits at most
   5 s, so a client that stops reconnecting fails its test instead of
   hanging it. The peer answers the connection's first frame (the Hello)
   before handing it to the script. *)
let scripted_peer scripts =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let peer =
    Domain.spawn (fun () ->
        List.iter
          (fun script ->
            match Unix.select [ lsock ] [] [] 5.0 with
            | [], _, _ -> ()
            | _ ->
                let fd, _ = Unix.accept lsock in
                let c = Conn.of_fd fd in
                Conn.set_read_timeout c 5.0;
                (match Conn.recv c with
                | Ok _ -> send_ack c ~accepted:0 ~dup:false
                | Error _ -> ());
                script c;
                Conn.close c)
          scripts;
        Unix.close lsock)
  in
  (port, peer)

let seqs l = List.map fst l

let test_client_full_buffer () =
  (* The two full-buffer contracts: [try_push] sheds and counts the key,
     [push] waits until a sender drains the buffer. A scripted peer reads
     a full window of batches and holds every ack, so the sender can take
     no more and the buffer behind the window stays full. *)
  let in_flight = Atomic.make 0 and release = Atomic.make false in
  let port, peer =
    scripted_peer
      [
        (fun c ->
          let rec hold got =
            if List.length got < Net.Client.window then
              match recv_batch c with
              | Some b ->
                  Atomic.incr in_flight;
                  hold (b :: got)
              | None -> got
            else got
          in
          let held = List.rev (hold []) in
          while not (Atomic.get release) do
            Unix.sleepf 0.001
          done;
          List.iter
            (fun (_, keys) ->
              send_ack c ~accepted:(Array.length keys) ~dup:false)
            held;
          ack_rest c);
      ]
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:4 ~queue:4 ~flush_age:5.0 ~session:78L
      ~host:"127.0.0.1" ~port ()
  in
  let on_wire = 4 * Net.Client.window in
  for i = 1 to on_wire do
    check_bool "window filled" true (Net.Client.push cli i)
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get in_flight < Net.Client.window && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  check_int "window in flight" Net.Client.window (Atomic.get in_flight);
  for i = 1 to 4 do
    check_bool "buffer refilled" true (Net.Client.push cli (on_wire + i))
  done;
  check_bool "try_push into a full buffer sheds" false (Net.Client.try_push cli 0);
  check_int "shed counted" 1 (Net.Client.stats cli).Net.Client.shed;
  let returned = Atomic.make false in
  let pusher =
    Domain.spawn (fun () ->
        let ok = Net.Client.push cli 0 in
        Atomic.set returned true;
        ok)
  in
  Unix.sleepf 0.05;
  check_bool "push waits while the buffer is full" false (Atomic.get returned);
  Atomic.set release true;
  check_bool "push lands once the sender drains" true (Domain.join pusher);
  Net.Client.close cli;
  Domain.join peer;
  let cs = Net.Client.stats cli in
  check_int "pushed" (on_wire + 5) cs.Net.Client.pushed;
  check_int "acked" (on_wire + 5) cs.Net.Client.acked;
  check_int "shed" 1 cs.Net.Client.shed

let test_client_pipelines_window () =
  (* The peer reads a full window of batch frames before it answers any:
     a stop-and-wait sender would sit on its first frame until its read
     timeout. The acks then carry different accepted counts, one per
     batch in seq order; the totals are exact. *)
  let seen = ref [] in
  let port, peer =
    scripted_peer
      [
        (fun c ->
          seen := recv_batches c Net.Client.window;
          List.iteri
            (fun i _ -> send_ack c ~accepted:(4 - i) ~dup:false)
            !seen;
          ack_rest c);
      ]
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:4 ~flush_age:5.0 ~read_timeout:2.0
      ~session:79L ~host:"127.0.0.1" ~port ()
  in
  for i = 1 to 16 do
    ignore (Net.Client.push cli i)
  done;
  Net.Client.close cli;
  Domain.join peer;
  check_int "window = 4" 4 Net.Client.window;
  Alcotest.(check (list int)) "four frames before the first ack" [ 0; 1; 2; 3 ]
    (seqs !seen);
  Alcotest.(check (list (array int)))
    "each frame carries its keys in push order"
    [ [| 1; 2; 3; 4 |]; [| 5; 6; 7; 8 |]; [| 9; 10; 11; 12 |]; [| 13; 14; 15; 16 |] ]
    (List.map snd !seen);
  let cs = Net.Client.stats cli in
  check_int "sent" 16 cs.Net.Client.sent;
  check_int "acked = 4 + 3 + 2 + 1" 10 cs.Net.Client.acked;
  check_int "shed = the rejected remainders" 6 cs.Net.Client.shed;
  check_int "no errors" 0 cs.Net.Client.errors

let test_client_fifo_acks () =
  (* Acks resolve the oldest unacked batch. The peer acks the first two of
     four frames (4 and 1 keys accepted) and cuts the connection; the
     sender must resend exactly the other two, in seq order, and the
     second peer's acks (3 as a duplicate, then 2) land on them. *)
  let first = ref [] and second = ref [] in
  let port, peer =
    scripted_peer
      [
        (fun c ->
          first := recv_batches c 4;
          send_ack c ~accepted:4 ~dup:false;
          send_ack c ~accepted:1 ~dup:false);
        (fun c ->
          second := recv_batches c 2;
          send_ack c ~accepted:3 ~dup:true;
          send_ack c ~accepted:2 ~dup:false;
          ack_rest c);
      ]
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:4 ~flush_age:5.0 ~session:80L
      ~host:"127.0.0.1" ~port ()
  in
  for i = 1 to 16 do
    ignore (Net.Client.push cli i)
  done;
  Net.Client.close cli;
  Domain.join peer;
  Alcotest.(check (list int)) "first connection" [ 0; 1; 2; 3 ] (seqs !first);
  Alcotest.(check (list int)) "resent: the two unacked" [ 2; 3 ] (seqs !second);
  Alcotest.(check (list (array int)))
    "resent with their own keys"
    [ [| 9; 10; 11; 12 |]; [| 13; 14; 15; 16 |] ]
    (List.map snd !second);
  let cs = Net.Client.stats cli in
  check_int "acked = 4 + 1 + 3 + 2" 10 cs.Net.Client.acked;
  check_int "sent" 16 cs.Net.Client.sent;
  check_int "shed" 6 cs.Net.Client.shed;
  check_int "one duplicate ack" 1 cs.Net.Client.duplicates_suppressed;
  check_int "one failure" 1 cs.Net.Client.errors;
  check_int "one reconnect" 1 cs.Net.Client.reconnects;
  check_int "nothing exhausted" 0 cs.Net.Client.exhausted

let test_client_cut_window_dedup () =
  (* The connection is cut with a full window unacked, the first two of
     which the real server already applied. A relay between the two
     forwards the Hello and those two batches, withholds their acks,
     swallows the other two frames and closes both sides; the next
     connection it relays in full. The resend meets the server's dedup
     window: the two applied batches are acked as duplicates, the other
     two applied now, and acked = published exactly. *)
  let srv = start_server () in
  let upstream () =
    let s = Conn.connect ~host:"127.0.0.1" ~port:(Srv.port srv) in
    Conn.set_read_timeout s 5.0;
    s
  in
  let forward c s =
    match Conn.recv c with
    | Error _ -> None
    | Ok frame -> (
        ignore (Conn.send s frame);
        match Conn.recv s with Ok r -> Some r | Error _ -> None)
  in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let accept () =
    match Unix.select [ lsock ] [] [] 5.0 with
    | [], _, _ -> None
    | _ ->
        let fd, _ = Unix.accept lsock in
        let c = Conn.of_fd fd in
        Conn.set_read_timeout c 5.0;
        Some c
  in
  let relay =
    Domain.spawn (fun () ->
        (match accept () with
        | None -> ()
        | Some c ->
            let s = upstream () in
            (match forward c s with
            | Some hello_ack -> ignore (Conn.send c hello_ack)
            | None -> ());
            for i = 1 to 4 do
              if i <= 2 then ignore (forward c s) else ignore (Conn.recv c)
            done;
            Conn.close s;
            Conn.close c);
        (match accept () with
        | None -> ()
        | Some c ->
            let s = upstream () in
            let rec pump () =
              match forward c s with
              | Some r ->
                  ignore (Conn.send c r);
                  pump ()
              | None -> ()
            in
            pump ();
            Conn.close s;
            Conn.close c);
        Unix.close lsock)
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:4 ~flush_age:5.0 ~session:81L
      ~host:"127.0.0.1" ~port ()
  in
  for i = 1 to 16 do
    ignore (Net.Client.push cli (i land 7))
  done;
  Net.Client.close cli;
  Domain.join relay;
  let stats = Srv.stop srv in
  let cs = Net.Client.stats cli in
  check_int "acked exact" 16 cs.Net.Client.acked;
  check_int "two duplicates suppressed" 2 cs.Net.Client.duplicates_suppressed;
  check_int "server suppressed the same two" 2 stats.Srv.duplicates;
  check_int "nothing shed" 0 cs.Net.Client.shed;
  check_int "published = acked" 16
    (Srv.P.stats (Srv.engine srv)).Srv.P.published

let test_client_window_exhausted () =
  (* Every attempt fails: each connection reads the window's frames and
     closes without an ack. Every unacked batch spends one attempt per
     lost connection, so after 1 + retries connections each batch's keys
     are counted in both shed and exhausted. *)
  let drop c = ignore (recv_batches c 4) in
  let port, peer = scripted_peer [ drop; drop; drop ] in
  let cli =
    Net.Client.create ~conns:1 ~batch:4 ~flush_age:5.0 ~retries:2
      ~session:82L ~host:"127.0.0.1" ~port ()
  in
  for i = 1 to 16 do
    ignore (Net.Client.push cli i)
  done;
  Net.Client.close cli;
  Domain.join peer;
  let cs = Net.Client.stats cli in
  check_int "nothing acked" 0 cs.Net.Client.acked;
  check_int "nothing sent to an answer" 0 cs.Net.Client.sent;
  check_int "every key shed" 16 cs.Net.Client.shed;
  check_int "every key exhausted" 16 cs.Net.Client.exhausted;
  check_int "one failure per connection" 3 cs.Net.Client.errors

let test_client_window_within_dedup () =
  (* A resent batch is answered exactly only while its seq is still in
     the server's dedup window, and a resend is at most [window] seqs
     behind the newest. *)
  check_bool "window >= 1" true (Net.Client.window >= 1);
  check_bool "window <= dedup window" true
    (Net.Client.window <= Net.Dedup.window)

let test_client_ring_wraps () =
  (* A queue that is not a multiple of the batch makes every take wrap
     somewhere in the ring: keys still reach the peer in push order, and
     the age trigger still ships a partial batch. *)
  let m = Mutex.create () and got = ref [] and count = Atomic.make 0 in
  let rec record c =
    match recv_batch c with
    | Some (_, keys) ->
        Mutex.lock m;
        Array.iter (fun k -> got := k :: !got) keys;
        Mutex.unlock m;
        ignore (Atomic.fetch_and_add count (Array.length keys));
        send_ack c ~accepted:(Array.length keys) ~dup:false;
        record c
    | None -> ()
  in
  let port, peer = scripted_peer [ record ] in
  let cli =
    Net.Client.create ~conns:1 ~batch:3 ~queue:7 ~flush_age:0.02 ~session:83L
      ~host:"127.0.0.1" ~port ()
  in
  for i = 1 to 100 do
    check_bool "push" true (Net.Client.push cli i)
  done;
  Net.Client.flush cli;
  check_int "flushed" 100 (Atomic.get count);
  ignore (Net.Client.push cli 101);
  ignore (Net.Client.push cli 102);
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get count < 102 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  check_int "partial batch shipped by age" 102 (Atomic.get count);
  Net.Client.close cli;
  Domain.join peer;
  Alcotest.(check (list int)) "push order" (List.init 102 succ) (List.rev !got);
  check_int "acked" 102 (Net.Client.stats cli).Net.Client.acked

(* The served write path end to end, on one domain: a sender's pooled
   frame, a Conn receive, the in-place parse, the engine's routing and the
   ack written into a reused buffer. A 256-key frame used to be a fresh
   2 KB block on the major heap at both ends. After warm-up no frame
   allocates on the major heap, and only the parse's reader, closure and
   result on the minor heap: 12 words in the release profile, 21 in the
   dev profile, whose cross-module calls box the reader's int64s. (Untraced
   frames share [Obs.Span.zero]; a traced one adds its context.)
   Gc.counters and Gc.minor_words count this domain only, so the engine's
   workers do not bill the probe. *)
let test_batch_frame_allocates_no_heap_block () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let tx = Conn.of_fd a and rx = Conn.of_fd b in
  let eng = Srv.P.create ~shards:4 () in
  let keys = Array.init 256 (fun i -> (i * 7919) + 1) in
  let frame = Bytes.create (Frame.batch_frame_size 256) in
  let parsed = Frame.batch () and ack = Bytes.create Frame.ack_frame_size in
  let seq = ref 0 and ingested = ref 0 in
  let round () =
    let len =
      Frame.write_batch frame ~session:9L ~seq:!seq ~ctx:Obs.Span.zero keys
        ~len:256
    in
    incr seq;
    if not (Conn.send_sub tx frame ~len) then Alcotest.fail "send";
    match Conn.recv_view rx with
    | Error e -> Alcotest.failf "recv: %s" (Conn.recv_error_to_string e)
    | Ok v -> (
        match Frame.decode_batch parsed v.buf ~off:v.off ~len:v.len with
        | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e)
        | Ok () ->
            let accepted =
              Srv.P.ingest_batch eng parsed.keys ~len:parsed.count
            in
            ingested := !ingested + accepted;
            ignore (Frame.write_ack ack ~epoch:0 ~accepted ~dup:false))
  in
  for _ = 1 to 200 do
    round ()
  done;
  let frames = 2000 in
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to frames do
    round ()
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  Srv.P.drain eng;
  Conn.close tx;
  Conn.close rx;
  check_int "every key ingested" (256 * (frames + 200)) !ingested;
  let per_frame x = x /. float_of_int frames in
  let major = per_frame (major1 -. major0 -. (promoted1 -. promoted0)) in
  let minor = per_frame (minor1 -. minor0) in
  check_bool (Printf.sprintf "%.2f major-heap words per frame" major) true
    (major = 0.0);
  check_bool (Printf.sprintf "%.2f minor words per frame" minor) true
    (minor <= 24.0)

(* A ring smaller than a batch never holds a full one, so every push
   into the full ring would wait out flush_age: create refuses it. *)
let test_client_queue_holds_a_batch () =
  (match
     Net.Client.create ~conns:1 ~batch:8 ~queue:4 ~host:"127.0.0.1" ~port:1 ()
   with
  | _ -> Alcotest.fail "queue 4 < batch 8 accepted"
  | exception Invalid_argument _ -> ());
  (* the default queue, 8 batches, holds a batch and delivers *)
  let srv = start_server () in
  let cli =
    Net.Client.create ~conns:1 ~batch:8 ~flush_age:0.01 ~host:"127.0.0.1"
      ~port:(Srv.port srv) ()
  in
  for i = 1 to 100 do
    check_bool "push" true (Net.Client.push cli i)
  done;
  Net.Client.close cli;
  ignore (Srv.stop srv);
  check_int "acked" 100 (Net.Client.stats cli).Net.Client.acked

let test_client_push_allocates_nothing () =
  (* A push stores the key in the ring: no per-key cell, no boxed arrival
     time. The sender domain's frames are its own domain's words. *)
  let srv = start_server () in
  let cli =
    Net.Client.create ~conns:1 ~batch:256 ~flush_age:0.01 ~session:84L
      ~host:"127.0.0.1" ~port:(Srv.port srv) ()
  in
  for i = 1 to 10_000 do
    ignore (Net.Client.push cli i)
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    ignore (Net.Client.push cli i)
  done;
  let words = Gc.minor_words () -. w0 in
  Net.Client.close cli;
  ignore (Srv.stop srv);
  check_int "acked" 110_000 (Net.Client.stats cli).Net.Client.acked;
  check_bool
    (Printf.sprintf "%.0f minor words for 100k pushes" words)
    true (words < 1000.0)

(* Seconds until [f ()] holds, giving up after [within]. *)
let wait_until ?(within = 1.0) f =
  let t0 = Unix.gettimeofday () in
  while (not (f ())) && Unix.gettimeofday () -. t0 < within do
    Unix.sleepf 0.001
  done;
  Unix.gettimeofday () -. t0

(* Senders sleep until a batch is due: with [flush_age] 10 s nothing ages
   out during these tests, so whatever goes out promptly was woken. *)
let sleepy_client ~conns port =
  let cli =
    Net.Client.create ~conns ~batch:8 ~flush_age:10.0 ~host:"127.0.0.1" ~port ()
  in
  (* let every sender reach its sleep *)
  Unix.sleepf 0.05;
  cli

(* A push that completes a batch wakes a sleeping sender. *)
let test_client_full_batch_wakes ~conns () =
  let srv = start_server () in
  let cli = sleepy_client ~conns (Srv.port srv) in
  for i = 1 to 8 do
    ignore (Net.Client.push cli i)
  done;
  let acked () = (Net.Client.stats cli).Net.Client.acked = 8 in
  let waited = wait_until acked in
  check_bool (Printf.sprintf "full batch acked after %.3f s" waited) true
    (acked ());
  Net.Client.close cli;
  ignore (Srv.stop srv)

(* [flush] and [close] wake a sleeping sender: a lone key goes out at
   once on [flush], and [close] of an idle client returns at once. *)
let test_client_flush_close_wake () =
  let srv = start_server () in
  let cli = sleepy_client ~conns:2 (Srv.port srv) in
  ignore (Net.Client.push cli 1);
  let t0 = Unix.gettimeofday () in
  Net.Client.flush cli;
  let flushed = Unix.gettimeofday () -. t0 in
  check_bool (Printf.sprintf "flush returned in %.3f s" flushed) true
    (flushed < 1.0);
  check_int "the lone key acked" 1 (Net.Client.stats cli).Net.Client.acked;
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Net.Client.close cli;
  let closed = Unix.gettimeofday () -. t0 in
  check_bool (Printf.sprintf "close returned in %.3f s" closed) true
    (closed < 1.0);
  ignore (Srv.stop srv)

(* The age trigger still holds a lone key for [flush_age], and only that
   long: a key pushed into an empty buffer reaches the peer no sooner. *)
let test_client_lone_key_waits_flush_age () =
  let flush_age = 0.3 in
  let arrived = Atomic.make Float.nan in
  let port, peer =
    scripted_peer
      [
        (fun c ->
          match recv_batch c with
          | Some (_, keys) ->
              Atomic.set arrived (Unix.gettimeofday ());
              send_ack c ~accepted:(Array.length keys) ~dup:false;
              ack_rest c
          | None -> ());
      ]
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:8 ~flush_age ~session:85L
      ~host:"127.0.0.1" ~port ()
  in
  Unix.sleepf 0.05;
  let pushed = Unix.gettimeofday () in
  ignore (Net.Client.push cli 1);
  ignore
    (wait_until ~within:5.0 (fun () ->
         (Net.Client.stats cli).Net.Client.acked = 1));
  let held = Atomic.get arrived -. pushed in
  check_bool (Printf.sprintf "held %.3f s, flush_age %.1f s" held flush_age)
    true
    (held >= flush_age && held < flush_age +. 1.0);
  Net.Client.close cli;
  Domain.join peer

(* [close] closes every descriptor the client opened: its connections and
   its wake pipe. *)
let test_client_close_leaves_no_fd () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let before = open_fds () in
    let srv = start_server () in
    let cli =
      Net.Client.create ~conns:2 ~batch:8 ~flush_age:0.01 ~host:"127.0.0.1"
        ~port:(Srv.port srv) ()
    in
    for i = 1 to 100 do
      ignore (Net.Client.push cli i)
    done;
    ignore (Net.Client.query cli Frame.Total);
    Net.Client.close cli;
    ignore (Srv.stop srv);
    check_int "open descriptors after close" before (open_fds ())
  end

(* Satellite: the driver's sink seam. The default engine sink and the
   client sink implement the same signature; a bare Sink.make fills the
   optional operations with safe defaults. *)
let test_sink_seam () =
  let got = ref 0 and flushed = ref 0 in
  let sink =
    Workload.Sink.make
      ~flush:(fun () -> incr flushed)
      ~ingest:(fun _ -> incr got; true)
      ()
  in
  check_bool "ingest" true (sink.Workload.Sink.ingest 1);
  (* try_ingest defaults to the blocking path... *)
  check_bool "try_ingest default" true (sink.Workload.Sink.try_ingest 2);
  (* ...and query defaults to a no-op. *)
  sink.Workload.Sink.query 3;
  sink.Workload.Sink.flush ();
  check_int "both ingests landed" 2 !got;
  check_int "flush ran" 1 !flushed

(* ------------------------------------------------------------------ *)
(* Cross-tier tracing waterfall                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_waterfall () =
  (* One tracer shared by client, server and engine over live loopback
     (in one process the tiers can share a span sink): a sampled batch
     must leave a waterfall whose stages are recorded in pipeline order —
     enqueue -> flush -> decode -> ingest -> queue -> merge — all under
     one trace id, each stage parented on an earlier span. *)
  let reg = Obs.Registry.create () in
  let tracer = Obs.Tracer.create ~sample_every:1 ~metrics:reg () in
  let srv =
    Srv.create ~read_timeout:5.0 ~metrics:reg ~tracer
      ~eval:(fun _ _ -> None)
      ~make_engine:(fun ~on_merge ->
        Srv.P.create ~shards:2 ~batch:8 ~tracer ~on_merge ())
      ()
  in
  let cli =
    Net.Client.create ~conns:1 ~batch:16 ~flush_age:0.01 ~tracer
      ~host:"127.0.0.1" ~port:(Srv.port srv) ()
  in
  for i = 1 to 400 do
    check_bool "push accepted" true (Net.Client.push cli (i land 63))
  done;
  Net.Client.flush cli;
  Net.Client.close cli;
  ignore (Srv.stop srv);
  let spans = Obs.Tracer.recent tracer 4096 in
  check_bool "spans recorded" true (spans <> []);
  (* Group by trace id, keep the first span per stage. *)
  let traces = Hashtbl.create 64 in
  List.iter
    (fun (r : Obs.Span.record) ->
      let l =
        match Hashtbl.find_opt traces r.Obs.Span.trace_id with
        | Some l -> l
        | None -> []
      in
      if not (List.mem_assoc r.Obs.Span.stage l) then
        Hashtbl.replace traces r.Obs.Span.trace_id ((r.Obs.Span.stage, r) :: l))
    spans;
  let order = [ "enqueue"; "decode"; "ingest"; "queue"; "merge"; "flush" ] in
  let complete =
    Hashtbl.fold
      (fun _ l acc ->
        if List.for_all (fun s -> List.mem_assoc s l) order then l :: acc
        else acc)
      traces []
  in
  (* The engine's per-shard trace mailbox is one slot, so not every batch
     completes the chain — but with every batch sampled at least one must. *)
  check_bool
    (Printf.sprintf "at least one complete waterfall (%d traces, %d spans)"
       (Hashtbl.length traces) (List.length spans))
    true (complete <> []);
  List.iter
    (fun l ->
      let stamp s = (List.assoc s l).Obs.Span.stamp in
      let rec check_chain = function
        | a :: (b :: _ as rest) ->
            check_bool
              (Printf.sprintf "stage %s recorded before %s" a b)
              true
              (stamp a < stamp b);
            check_chain rest
        | _ -> ()
      in
      (* Recording order is only total along each causal chain: the client
         closes its "flush" span after the server's ack, and the shard
         worker's queue/merge spans race that ack — so check the ingest
         path and the merge path separately. *)
      check_chain [ "enqueue"; "decode"; "ingest"; "flush" ];
      check_chain [ "enqueue"; "decode"; "queue"; "merge" ];
      (* Every non-root stage is parented on another span of this trace. *)
      let ids =
        List.map (fun (_, (r : Obs.Span.record)) -> r.Obs.Span.span_id) l
      in
      List.iter
        (fun (s, (r : Obs.Span.record)) ->
          if s <> "enqueue" then
            check_bool
              (Printf.sprintf "stage %s parented in-trace" s)
              true
              (List.exists (Int64.equal r.Obs.Span.parent) ids))
        l)
    complete;
  (* The per-stage latency series exist for every pipeline stage. *)
  let snap = Obs.Registry.snapshot reg in
  List.iter
    (fun s ->
      match
        Obs.Snapshot.find snap ~labels:[ ("stage", s) ] "trace_stage_seconds"
      with
      | Some (Obs.Snapshot.Summary sum) ->
          check_bool
            (Printf.sprintf "stage %s timer populated" s)
            true
            (sum.Obs.Snapshot.s_count > 0)
      | _ -> Alcotest.failf "missing trace_stage_seconds{stage=%S}" s)
    order

(* ------------------------------------------------------------------ *)
(* Follower replica                                                    *)
(* ------------------------------------------------------------------ *)

let test_replica_convergence () =
  let srv = start_server ~shards:2 ~batch:4 () in
  let c = dial srv in
  (* Some history before the follower exists, so its seed snapshot is
     non-trivial and the handshake race (delta <= seed epoch) is live. *)
  check_int "pre-subscribe batch" 40
    (expect_ack c (batch (Array.init 40 (fun i -> i land 7))));
  let rep =
    Rep.connect ~host:"127.0.0.1" ~port:(Srv.port srv) ()
  in
  (* Stream more while the follower is live, sampling the envelope: the
     follower's published weight must never exceed the leader's (leader
     sampled second — it can only have grown in between). *)
  let violations = ref 0 in
  for round = 1 to 25 do
    check_int "mid-stream batch" 8
      (expect_ack c (batch (Array.init 8 (fun i -> (round + i) land 7))));
    let f = Rep.published rep in
    let l = (Srv.P.stats (Srv.engine srv)).Srv.P.published in
    if f > l then incr violations
  done;
  check_int "follower never leads leader" 0 !violations;
  Conn.close c;
  (* stop = drain + final fan-out + subscriber close + joins: after it the
     follower must converge exactly. *)
  ignore (Srv.stop srv);
  let est = Srv.P.stats (Srv.engine srv) in
  check_int "leader conserved" 240 est.Srv.P.published;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let rs = Rep.stats rep in
    if rs.Rep.published = est.Srv.P.published && rs.Rep.epoch = est.Srv.P.epoch
    then rs
    else if Unix.gettimeofday () > deadline then rs
    else (
      Unix.sleepf 0.01;
      settle ())
  in
  let rs = settle () in
  check_int "exact published convergence" est.Srv.P.published rs.Rep.published;
  check_int "exact epoch convergence" est.Srv.P.epoch rs.Rep.epoch;
  check_bool "follower applied deltas" true (rs.Rep.deltas > 0);
  (* Bit-for-bit: the follower's folded state encodes to the same blob as
     the leader's global sketch. *)
  let leader_blob, _, _ = Srv.P.snapshot (Srv.engine srv) in
  (match Rep.query rep MC.encode with
  | Some (follower_blob, _) ->
      check_bool "encoded states identical" true
        (Bytes.equal leader_blob follower_blob)
  | None -> Alcotest.fail "follower never seeded");
  Rep.close rep

(* Regression for the convergence flake: [Rep.connect] used to return
   before the leader had registered the subscription, so a leader stopped
   right after it (under load, before its handler had read the subscribe)
   reset the follower, which could never resync from a dead leader. Now
   the handshake is synchronous: when [connect] returns the follower is
   Live and counted as a subscriber, and a stop with no pause in between
   still delivers the final fan-out. No step here waits on a clock. *)
let test_replica_stop_after_connect () =
  let srv = start_server ~shards:2 ~batch:4 () in
  let c = dial srv in
  check_int "history" 40
    (expect_ack c (batch (Array.init 40 (fun i -> i land 7))));
  let rep =
    Rep.connect ~host:"127.0.0.1" ~port:(Srv.port srv) ()
  in
  check_bool "live when connect returns" true (Rep.status rep = `Live);
  check_int "subscribed when connect returns" 1 (Srv.stats srv).Srv.subscribers;
  (* a tail smaller than the merge cadence: the stop's drain flushes the
     partial shard deltas it leaves *)
  check_int "tail" 6 (expect_ack c (batch (Array.init 6 (fun i -> i))));
  Conn.close c;
  ignore (Srv.stop srv);
  let est = Srv.P.stats (Srv.engine srv) in
  check_int "leader conserved" 46 est.Srv.P.published;
  (* the final deltas were queued before the subscriber's close, so the
     follower reaches them even though its resync can never succeed; the
     deadline only bounds a regression, the pass never depends on it *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let rs = Rep.stats rep in
    if rs.Rep.epoch >= est.Srv.P.epoch || Unix.gettimeofday () > deadline
    then rs
    else (
      Unix.sleepf 0.005;
      settle ())
  in
  let rs = settle () in
  check_int "exact published convergence" est.Srv.P.published rs.Rep.published;
  check_int "exact epoch convergence" est.Srv.P.epoch rs.Rep.epoch;
  Rep.close rep

(* CountMin followers: the delta and the seed snapshot carry only a family
   fingerprint, so the follower's own family must be the leader's. *)
module Cm_of (S : sig
  val seed : int64
end) =
Pipeline.Targets.Countmin (struct
  let seed = S.seed
  let rows = 4
  let width = 64
end)

module CmA = Cm_of (struct
  let seed = 0xA1L
end)

module CmB = Cm_of (struct
  let seed = 0xB2L
end)

module SrvA = Net.Server.Make (CmA)
module RepA = Net.Replica.Make (CmA)
module RepB = Net.Replica.Make (CmB)

(* A follower seeded at epoch 5 with [seed_blob] by a scripted leader,
   which then sends [next]: the follower must resync, with a break naming
   [why], and keep serving the seed. The leader accepts the resync dial,
   reads its subscribe and never seeds it, so the state seen after the
   resync is the pre-resync one. *)
let check_resync_keeps_seed ~seed_blob ~why next =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let release = Atomic.make false in
  let peer =
    Domain.spawn (fun () ->
        let accept () =
          match Unix.select [ lsock ] [] [] 5.0 with
          | [], _, _ -> None
          | _ ->
              let fd, _ = Unix.accept lsock in
              let c = Conn.of_fd fd in
              Conn.set_read_timeout c 5.0;
              ignore (Conn.recv c);
              Some c
        in
        (match accept () with
        | Some c ->
            List.iter
              (fun f -> ignore (Conn.send c (Frame.encode_push f)))
              [ Frame.Snapshot { epoch = 5; published = 3; blob = seed_blob }; next ];
            (* the resync dial: accepted and subscribed, never seeded *)
            (match accept () with
            | Some c2 ->
                while not (Atomic.get release) do
                  Unix.sleepf 0.005
                done;
                Conn.close c2
            | None -> ());
            Conn.close c
        | None -> ());
        Unix.close lsock)
  in
  let rep = RepA.connect ~host:"127.0.0.1" ~port () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (RepA.stats rep).RepA.resyncs < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let rs = RepA.stats rep in
  let state = RepA.query rep CmA.encode in
  Atomic.set release true;
  RepA.close rep;
  Domain.join peer;
  check_int "resynced" 1 rs.RepA.resyncs;
  check_bool ("break names the " ^ why) true
    (match rs.RepA.last_break with
    | Some b -> Test_helpers.contains b why
    | None -> false);
  check_int "no delta applied" 0 rs.RepA.deltas;
  check_int "epoch unchanged" 5 rs.RepA.epoch;
  check_int "published unchanged" 3 rs.RepA.published;
  match state with
  | Some (blob, 5) -> check_bool "state bit-identical" true (Bytes.equal blob seed_blob)
  | Some (_, e) -> Alcotest.failf "served epoch %d" e
  | None -> Alcotest.fail "follower lost its state"

let cm_seed () =
  let seed = CmA.create () in
  List.iter (CmA.update seed) [ 1; 2; 3 ];
  seed

(* A follower validates each delta whole before folding it in place: a
   delta whose last row is bad (checksum intact) forces a resync and leaves
   the served state as it was. *)
let test_replica_fold_all_or_nothing () =
  let seed = cm_seed () in
  let family = Sketches.Countmin.family seed in
  check_resync_keeps_seed ~seed_blob:(CmA.encode seed) ~why:"delta decode"
    (Frame.Delta
       { epoch = 6; weight = 1; blob = Test_helpers.countmin_bad_last_row ~family })

(* A stream has one snapshot, the seed, first: a later snapshot is a
   protocol break that forces a resync, and is never applied. *)
let test_replica_snapshot_after_seed () =
  let seed_blob = CmA.encode (cm_seed ()) in
  check_resync_keeps_seed ~seed_blob ~why:"snapshot after the seed"
    (Frame.Snapshot { epoch = 9; published = 7; blob = seed_blob })

(* A follower started with another seed than its leader must not adopt the
   leader's state: the snapshot's fingerprint does not match the follower's
   family, so the follower ends Broken at once, says why, and publishes
   nothing. A same-seed follower is the control. *)
let test_replica_seed_mismatch () =
  let srv =
    SrvA.create ~read_timeout:5.0
      ~eval:(fun _ _ -> None)
      ~make_engine:(fun ~on_merge -> SrvA.P.create ~shards:2 ~batch:4 ~on_merge ())
      ()
  in
  let c = Conn.connect ~host:"127.0.0.1" ~port:(SrvA.port srv) in
  Conn.set_read_timeout c 5.0;
  check_int "history" 16 (expect_ack c (batch (Array.init 16 (fun i -> i))));
  Conn.close c;
  let same = RepA.connect ~host:"127.0.0.1" ~port:(SrvA.port srv) () in
  check_bool "same seed goes Live" true (RepA.status same = `Live);
  RepA.close same;
  let other = RepB.connect ~host:"127.0.0.1" ~port:(SrvA.port srv) () in
  let rs = RepB.stats other in
  RepB.close other;
  ignore (SrvA.stop srv);
  (match rs.RepB.status with
  | `Broken why ->
      check_bool "names the fingerprint mismatch" true
        (Test_helpers.contains why "fingerprint")
  | _ -> Alcotest.fail "a follower of another seed must end Broken");
  check_bool "last error names it too" true
    (match rs.RepB.last_break with
    | Some why -> Test_helpers.contains why "fingerprint"
    | None -> false);
  check_int "publishes nothing" 0 rs.RepB.published;
  check_int "no epoch" (-1) rs.RepB.epoch;
  check_int "no resync attempted" 0 rs.RepB.resyncs;
  check_bool "nothing to query" true (RepB.query other CmB.encode = None);
  check_bool "still Broken after close" true
    (match RepB.status other with `Broken _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Effectively-once ingestion                                          *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivl-test-net-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let expect_ack_dup c req =
  match request c req with
  | Frame.Ack { accepted; dup; _ } -> (accepted, dup)
  | Frame.Err { msg; _ } -> Alcotest.failf "err instead of ack: %s" msg
  | _ -> Alcotest.fail "not an ack"

(* The at-least-once double-count, pinned at the dedup window. A sender
   whose ack is lost after the server applied the batch must retry, and a
   window that cannot tell the retry from new data applies it twice, so
   conservation (published = sum of acked, each logical batch once)
   breaks. Every session id, 0L included, must answer the second sight of
   a (session, seq) as a duplicate of the recorded count. *)
let test_at_least_once_double_count () =
  let d = Net.Dedup.create () in
  List.iter
    (fun session ->
      (match Net.Dedup.begin_batch d ~session ~seq:0 ~count:32 with
      | Net.Dedup.Fresh -> Net.Dedup.record d ~session ~seq:0 ~accepted:32
      | Net.Dedup.Duplicate _ ->
          Alcotest.failf "session %Ld: first send must be fresh" session);
      (* the ack was "lost": the producer retries the identical batch *)
      match Net.Dedup.begin_batch d ~session ~seq:0 ~count:32 with
      | Net.Dedup.Duplicate 32 -> ()
      | Net.Dedup.Duplicate k ->
          Alcotest.failf "session %Ld: retry acked %d, not 32" session k
      | Net.Dedup.Fresh ->
          Alcotest.failf "session %Ld: retry re-applied (double count)"
            session)
    [ 0L; 42L ];
  check_int "both retries suppressed" 2 (Net.Dedup.stats d).Net.Dedup.duplicates;
  Net.Dedup.close d

(* The same lost-ack exchange end to end: the retry is acked with the
   original count, dup = true, and never re-applied. *)
let test_lost_ack_retry () =
  let srv = start_server () in
  let c = dial srv in
  let keys = Array.init 32 (fun i -> i land 7) in
  check_int "hello acked" 0 (expect_ack c (Frame.Hello { session = 42L }));
  let sb = batch ~session:42L ~seq:0 keys in
  (match expect_ack_dup c sb with
  | 32, false -> ()
  | k, d -> Alcotest.failf "first send: accepted %d dup %b" k d);
  (match expect_ack_dup c sb with
  | 32, true -> ()
  | k, d -> Alcotest.failf "retry: accepted %d dup %b (must be 32, true)" k d);
  (* a fresh seq from the same session still flows *)
  (match expect_ack_dup c (batch ~session:42L ~seq:1 keys) with
  | 32, false -> ()
  | k, d -> Alcotest.failf "next seq: accepted %d dup %b" k d);
  Conn.close c;
  let stats = Srv.stop srv in
  check_int "one batch suppressed" 1 stats.Srv.duplicates;
  check_bool "session tracked" true (stats.Srv.sessions >= 1);
  check_int "published counts each logical batch once" 64
    (Srv.P.stats (Srv.engine srv)).Srv.P.published

let test_dedup_window () =
  let d = Net.Dedup.create () in
  Net.Dedup.register d ~session:7L;
  (match Net.Dedup.begin_batch d ~session:7L ~seq:0 ~count:10 with
  | Net.Dedup.Fresh -> ()
  | Net.Dedup.Duplicate _ -> Alcotest.fail "seq 0 must be fresh");
  (* record overwrites the provisional claimed count with the engine's
     actual accepted count, so an in-window duplicate ack is exact *)
  Net.Dedup.record d ~session:7L ~seq:0 ~accepted:9;
  (match Net.Dedup.begin_batch d ~session:7L ~seq:0 ~count:10 with
  | Net.Dedup.Duplicate 9 -> ()
  | Net.Dedup.Duplicate k -> Alcotest.failf "exact dup count: got %d" k
  | Net.Dedup.Fresh -> Alcotest.fail "seq 0 retried must be duplicate");
  for s = 1 to Net.Dedup.window + 2 do
    match Net.Dedup.begin_batch d ~session:7L ~seq:s ~count:1 with
    | Net.Dedup.Fresh -> Net.Dedup.record d ~session:7L ~seq:s ~accepted:1
    | Net.Dedup.Duplicate _ -> Alcotest.failf "seq %d must be fresh" s
  done;
  (* seq 0 has left the window's ring but sits under the high-water mark:
     still a duplicate (seqs are emitted in order), answered with the
     retry's claimed count *)
  (match Net.Dedup.begin_batch d ~session:7L ~seq:0 ~count:10 with
  | Net.Dedup.Duplicate 10 -> ()
  | Net.Dedup.Duplicate k -> Alcotest.failf "below-ring dup: got %d" k
  | Net.Dedup.Fresh -> Alcotest.fail "evicted seq must stay duplicate");
  (* session 0L is an ordinary id: its retry is a duplicate too *)
  (match Net.Dedup.begin_batch d ~session:0L ~seq:0 ~count:5 with
  | Net.Dedup.Fresh -> ()
  | _ -> Alcotest.fail "session 0 seq 0 must be fresh");
  (match Net.Dedup.begin_batch d ~session:0L ~seq:0 ~count:5 with
  | Net.Dedup.Duplicate 5 -> ()
  | _ -> Alcotest.fail "session 0 retry must be duplicate");
  let st = Net.Dedup.stats d in
  check_int "two live sessions (0L tracked)" 2 st.Net.Dedup.sessions;
  check_int "duplicates counted" 3 st.Net.Dedup.duplicates;
  Net.Dedup.close d

(* The session table holds at most [max_sessions]: one more evicts the
   least recently used, and an evicted session's retry is fresh again.
   Every session starts with one batch (seq 0) so survival is visible as
   a duplicate answer. *)
let test_dedup_session_lru () =
  let d = Net.Dedup.create () in
  let bound = Net.Dedup.max_sessions in
  let open_session id =
    match Net.Dedup.begin_batch d ~session:(Int64.of_int id) ~seq:0 ~count:1 with
    | Net.Dedup.Fresh -> ()
    | Net.Dedup.Duplicate _ -> Alcotest.failf "session %d seq 0 must be fresh" id
  in
  let survived id =
    match Net.Dedup.begin_batch d ~session:(Int64.of_int id) ~seq:0 ~count:1 with
    | Net.Dedup.Duplicate 1 -> true
    | Net.Dedup.Duplicate k -> Alcotest.failf "session %d: dup count %d" id k
    | Net.Dedup.Fresh -> false
  in
  (* sessions 0 .. bound-1, oldest first *)
  for id = 0 to bound - 1 do
    open_session id
  done;
  check_int "table full" bound (Net.Dedup.stats d).Net.Dedup.sessions;
  (* touch session 1 just before the overflow: it is now the newest *)
  Net.Dedup.register d ~session:1L;
  open_session bound;
  open_session (bound + 1);
  check_int "sessions stay at the bound" bound (Net.Dedup.stats d).Net.Dedup.sessions;
  (* the two overflows evicted the two least recently used: 0, then 2 *)
  check_bool "touched session survives" true (survived 1);
  check_bool "newest session survives" true (survived (bound + 1));
  check_bool "least recently used evicted" false (survived 0);
  check_bool "next least recently used evicted" false (survived 2);
  Net.Dedup.close d

let test_dedup_journal_survives_restart () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let d = Net.Dedup.create ~dir () in
      (match Net.Dedup.begin_batch d ~session:9L ~seq:0 ~count:16 with
      | Net.Dedup.Fresh -> Net.Dedup.record d ~session:9L ~seq:0 ~accepted:16
      | _ -> Alcotest.fail "fresh expected");
      (match Net.Dedup.begin_batch d ~session:9L ~seq:1 ~count:8 with
      | Net.Dedup.Fresh -> Net.Dedup.record d ~session:9L ~seq:1 ~accepted:8
      | _ -> Alcotest.fail "fresh expected");
      check_int "journaled" 2 (Net.Dedup.stats d).Net.Dedup.journal_records;
      Net.Dedup.close d;
      (* a new incarnation replays the journal: the retry that spans the
         restart stays suppressed, answered with the claimed count *)
      let d2 = Net.Dedup.create ~dir () in
      check_int "recovered" 2 (Net.Dedup.stats d2).Net.Dedup.recovered_records;
      (match Net.Dedup.begin_batch d2 ~session:9L ~seq:1 ~count:8 with
      | Net.Dedup.Duplicate 8 -> ()
      | Net.Dedup.Duplicate k -> Alcotest.failf "recovered dup: got %d" k
      | Net.Dedup.Fresh -> Alcotest.fail "journaled seq must be duplicate");
      (match Net.Dedup.begin_batch d2 ~session:9L ~seq:2 ~count:4 with
      | Net.Dedup.Fresh -> ()
      | _ -> Alcotest.fail "new seq must be fresh");
      Net.Dedup.close d2;
      (* torn tail: a crash mid-append leaves a partial frame; the next
         incarnation recovers the longest valid prefix and truncates *)
      let path = Filename.concat dir "sessions.log" in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 3);
      Unix.close fd;
      let d3 = Net.Dedup.create ~dir () in
      check_int "prefix recovered, torn record dropped" 2
        (Net.Dedup.stats d3).Net.Dedup.recovered_records;
      (match Net.Dedup.begin_batch d3 ~session:9L ~seq:1 ~count:8 with
      | Net.Dedup.Duplicate _ -> ()
      | Net.Dedup.Fresh -> Alcotest.fail "prefix seq must stay duplicate");
      Net.Dedup.close d3;
      check_bool "torn tail truncated on a frame boundary" true
        ((Unix.stat path).Unix.st_size < len))

let test_dedup_journal_compaction () =
  (* The journal appends one frame per fresh batch forever, but the state it
     rebuilds is bounded (window ring + high-water mark per session), so
     compaction must keep the file bounded too: after thousands of appends a
     restart may replay at most [window] frames per live session — and the
     suppression answers must be unchanged. *)
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let window = Net.Dedup.window and every = Net.Dedup.compact_every in
      let n5 = (2 * every) + 100 and n6 = 2 * window in
      let d = Net.Dedup.create ~dir () in
      let fresh_seq session seq =
        match Net.Dedup.begin_batch d ~session ~seq ~count:(seq + 1) with
        | Net.Dedup.Fresh ->
            Net.Dedup.record d ~session ~seq ~accepted:(seq + 1)
        | Net.Dedup.Duplicate _ -> Alcotest.failf "seq %d must be fresh" seq
      in
      for s = 0 to n5 - 1 do
        fresh_seq 5L s
      done;
      for s = 0 to n6 - 1 do
        fresh_seq 6L s
      done;
      let st = Net.Dedup.stats d in
      check_int "every fresh batch journaled" (n5 + n6)
        st.Net.Dedup.journal_records;
      check_bool "appends triggered compactions" true
        (st.Net.Dedup.compactions >= (n5 + n6) / every);
      Net.Dedup.close d;
      (* Restart: the replay is bounded by the snapshot, not by history. *)
      let d2 = Net.Dedup.create ~dir () in
      let st2 = Net.Dedup.stats d2 in
      (* Bound from the mli: window frames per live session in the snapshot
         plus the frames appended since the last rewrite — against
         n5 + n6 total appends. *)
      check_bool
        (Printf.sprintf "bounded replay (%d <= window*sessions + tail)"
           st2.Net.Dedup.recovered_records)
        true
        (st2.Net.Dedup.recovered_records
        <= (window * 2) + ((n5 + n6) mod every));
      check_bool "recovery itself compacted" true
        (st2.Net.Dedup.compactions >= 1);
      (* Suppression semantics survive the rewrite: a windowed seq answers
         its recorded count, an ancient seq dedups via the high-water mark. *)
      (match Net.Dedup.begin_batch d2 ~session:5L ~seq:(n5 - 1) ~count:n5 with
      | Net.Dedup.Duplicate k when k = n5 -> ()
      | Net.Dedup.Duplicate k -> Alcotest.failf "windowed dup: got %d" k
      | Net.Dedup.Fresh -> Alcotest.fail "windowed seq must stay duplicate");
      (match Net.Dedup.begin_batch d2 ~session:5L ~seq:3 ~count:7 with
      | Net.Dedup.Duplicate _ -> ()
      | Net.Dedup.Fresh -> Alcotest.fail "below-ring seq must stay duplicate");
      (match Net.Dedup.begin_batch d2 ~session:6L ~seq:n6 ~count:1 with
      | Net.Dedup.Fresh -> ()
      | _ -> Alcotest.fail "next seq must be fresh");
      Net.Dedup.close d2;
      (* A crash mid-append after compaction: torn tail on the compacted
         file truncates to a frame boundary and keeps the snapshot. *)
      let path = Filename.concat dir "sessions.log" in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 2);
      Unix.close fd;
      let d3 = Net.Dedup.create ~dir () in
      check_bool "torn compacted journal still replays" true
        ((Net.Dedup.stats d3).Net.Dedup.recovered_records > 0);
      (match Net.Dedup.begin_batch d3 ~session:5L ~seq:(n5 - 1) ~count:n5 with
      | Net.Dedup.Duplicate _ -> ()
      | Net.Dedup.Fresh -> Alcotest.fail "dup must survive the torn tail");
      Net.Dedup.close d3)

(* ------------------------------------------------------------------ *)
(* Chaos proxy                                                         *)
(* ------------------------------------------------------------------ *)

let proxy_for srv ~seed () =
  Net.Chaos_proxy.create ~seed
    ~upstream:(fun () -> ("127.0.0.1", Srv.port srv))
    ()

let test_proxy_forwarding_and_partition () =
  let srv = start_server () in
  let px = proxy_for srv ~seed:0x9L () in
  let dial_px () =
    let c = Conn.connect ~host:"127.0.0.1" ~port:(Net.Chaos_proxy.port px) in
    Conn.set_read_timeout c 2.0;
    c
  in
  (* transparent when fault-free: the full request/ack exchange works *)
  let c = dial_px () in
  check_int "ack through proxy" 10
    (expect_ack c (batch (Array.init 10 (fun i -> i))));
  (* a partition severs the live flow... *)
  Net.Chaos_proxy.set_partition px true;
  check_bool "send into partition eventually fails" true
    (let b = Frame.encode_request (batch [| 1 |]) in
     not (Conn.send c b && Result.is_ok (Conn.recv c)));
  Conn.close c;
  (* ...and refuses new dials (accepted, then immediately closed) *)
  let c2 = dial_px () in
  check_bool "no service while partitioned" true
    (let b = Frame.encode_request (batch [| 1 |]) in
     not (Conn.send c2 b && Result.is_ok (Conn.recv c2)));
  Conn.close c2;
  (* healing the partition restores service through the same proxy port *)
  Net.Chaos_proxy.set_partition px false;
  let c3 = dial_px () in
  check_int "ack after heal" 5 (expect_ack c3 (batch (Array.init 5 (fun i -> i))));
  Conn.close c3;
  let ps = Net.Chaos_proxy.stop px in
  check_bool "conns forwarded" true (ps.Net.Chaos_proxy.conns >= 2);
  check_bool "refusals counted" true (ps.Net.Chaos_proxy.refused >= 1);
  check_bool "bytes counted" true (ps.Net.Chaos_proxy.bytes > 0);
  ignore (Srv.stop srv)

(* Satellite: the client's effectively-once contract observed end to end —
   a partition mid-stream forces reconnects and retries, yet acked stays
   exact and the engine's published weight equals it after drain. *)
let test_client_effectively_once_through_chaos () =
  let srv = start_server ~shards:2 ~batch:64 () in
  let px = proxy_for srv ~seed:0x51L () in
  let cli =
    Net.Client.create ~conns:2 ~batch:128 ~flush_age:0.01 ~retries:64
      ~read_timeout:2.0 ~host:"127.0.0.1" ~port:(Net.Chaos_proxy.port px) ()
  in
  for i = 1 to 10_000 do
    ignore (Net.Client.push cli (i land 1023))
  done;
  (* sever everything mid-stream; senders retry through the outage *)
  Net.Chaos_proxy.set_partition px true;
  Unix.sleepf 0.15;
  Net.Chaos_proxy.set_partition px false;
  for i = 1 to 10_000 do
    ignore (Net.Client.push cli (i land 1023))
  done;
  Net.Client.flush cli;
  let cs = Net.Client.stats cli in
  Net.Client.close cli;
  ignore (Net.Chaos_proxy.stop px);
  let stats = Srv.stop srv in
  check_int "all pushed" 20_000 cs.Net.Client.pushed;
  check_int "no retry exhaustion" 0 cs.Net.Client.exhausted;
  check_int "acked exactly, despite the partition" 20_000 cs.Net.Client.acked;
  check_bool "the partition was felt" true (cs.Net.Client.errors >= 1);
  (* conservation: retried batches were acked, not re-applied *)
  check_int "published = acked" 20_000
    (Srv.P.stats (Srv.engine srv)).Srv.P.published;
  (* every dup ack the client saw was a batch the server suppressed (the
     reverse can differ: a dup ack can itself be lost) *)
  check_bool "dup acks reported to client" true
    (cs.Net.Client.duplicates_suppressed <= stats.Srv.duplicates)

(* ------------------------------------------------------------------ *)
(* Replica self-healing                                                *)
(* ------------------------------------------------------------------ *)

let test_replica_resync () =
  let reg = Obs.Registry.create () in
  let srv = start_server ~shards:2 ~batch:4 () in
  let px = proxy_for srv ~seed:0x7EL () in
  let c = dial srv in
  check_int "seed history" 16
    (expect_ack c (batch (Array.init 16 (fun i -> i land 3))));
  let rep =
    Rep.connect ~metrics:reg ~host:"127.0.0.1"
      ~port:(Net.Chaos_proxy.port px) ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Rep.status rep <> `Live && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check_bool "live after subscribe" true (Rep.status rep = `Live);
  (* break the stream: the partition kills the subscriber's flow *)
  Net.Chaos_proxy.set_partition px true;
  let saw_resyncing = ref false in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not !saw_resyncing && Unix.gettimeofday () < deadline do
    (match Rep.status rep with `Resyncing _ -> saw_resyncing := true | _ -> ());
    Unix.sleepf 0.005
  done;
  check_bool "status transitioned to Resyncing" true !saw_resyncing;
  (* while resyncing, the last applied state still serves — stale, never
     ahead of the leader *)
  check_bool "stale state still queryable" true
    (Rep.published rep <= (Srv.P.stats (Srv.engine srv)).Srv.P.published);
  (* heal: the replica redials through the same proxy port, takes a fresh
     snapshot, and goes Live again *)
  Net.Chaos_proxy.set_partition px false;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Rep.status rep <> `Live && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  check_bool "self-healed to Live" true (Rep.status rep = `Live);
  let rs = Rep.stats rep in
  check_bool "resync counted" true (rs.Rep.resyncs >= 1);
  check_bool "break reason recorded" true (rs.Rep.last_break <> None);
  (* the healed stream still converges exactly *)
  check_int "post-heal batch" 16
    (expect_ack c (batch (Array.init 16 (fun i -> i land 3))));
  Conn.close c;
  (* converge while the leader still serves: drain flushes the partial
     shard deltas, and the live subscriber receives them (stopping the
     server first would leave the healed replica redialing a dead port) *)
  let eng = Srv.engine srv in
  Srv.P.drain eng;
  let leader_blob, final_epoch, final_pub = Srv.P.snapshot eng in
  check_bool "converged after drain" true
    (Rep.wait_epoch ~timeout:5.0 rep final_epoch);
  check_int "exact convergence through a resync" final_pub (Rep.published rep);
  (match Rep.query rep MC.encode with
  | Some (follower_blob, _) ->
      check_bool "bit-for-bit after resync" true
        (Bytes.equal leader_blob follower_blob)
  | None -> Alcotest.fail "follower lost its state");
  (* satellite: the transitions are visible as obs series *)
  let snap = Obs.Registry.snapshot reg in
  check_bool "replica_resyncs_total scraped" true
    (Obs.Snapshot.counter_value snap "replica_resyncs_total" >= 1);
  Rep.close rep;
  check_bool "closed status exported" true (Rep.status rep = `Closed);
  ignore (Srv.stop srv);
  ignore (Net.Chaos_proxy.stop px)

(* ------------------------------------------------------------------ *)
(* Served chaos soak (Net.Soak) and the committed incident trace       *)
(* ------------------------------------------------------------------ *)

module NS = Net.Soak.Make (struct
  module M = MC

  let eval _ _ = None
  let bound = None
end)

let served_report (v : Net.Soak.verdict) =
  match v.Net.Soak.served with
  | Some s -> s
  | None -> Alcotest.fail "served soak without a served report"

let test_served_chaos_soak () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec =
        let s =
          Workload.Trace.default_spec ~seed:0xC4A05L ~ops:60_000 ~universe:2048
            ()
        in
        {
          s with
          Workload.Trace.phases =
            List.map
              (fun (p : Workload.Trace.phase) ->
                { p with Workload.Trace.rate = Workload.Trace.Unlimited })
              s.Workload.Trace.phases;
        }
      in
      let ops = Workload.Trace.materialize spec in
      let cfg =
        {
          (Net.Soak.default_config ~dir
             (Net.Soak.Served
                { Net.Soak.default_served with partitions = 1; outage = 0.15 }))
          with
          Net.Soak.restarts = 1;
        }
      in
      let reg = Obs.Registry.create () in
      let v = NS.run ~metrics:reg cfg ~spec ~ops () in
      if not v.Net.Soak.pass then
        Alcotest.failf "served soak failed:\n%s" (Net.Soak.verdict_to_string v);
      let s = served_report v in
      check_int "restart happened" 1 v.Net.Soak.restarts_done;
      check_int "partition happened" 1 v.Net.Soak.partitions_done;
      check_bool "replica resynced" true (s.Net.Soak.resyncs >= 1);
      check_int "no retry exhaustion" 0 s.Net.Soak.client.Net.Client.exhausted;
      check_int "follower never ahead" 0 s.Net.Soak.follower_ahead;
      let snap = Obs.Registry.snapshot reg in
      check_bool "resyncs scraped" true
        (Obs.Snapshot.counter_value snap "replica_resyncs_total" >= 1))

(* Satellite: a small served incident, recorded once via
   `ivl-cli soak --served --record-trace` and committed — replayed here so
   the exact op stream that drove a real kill/partition round stays a
   regression. The replay is clean-network (the trace pins the workload,
   not the faults) and must conserve exactly. *)
let test_incident_trace_replay () =
  let path = "data/served_incident.trace" in
  match Workload.Trace.read ~path with
  | Error msg -> Alcotest.failf "committed trace unreadable: %s" msg
  | Ok (spec, ops) ->
      check_bool "recorded phases" true
        (List.for_all
           (fun (p : Workload.Trace.phase) ->
             match p.Workload.Trace.shape with
             | Workload.Trace.Recorded _ -> true
             | _ -> false)
           spec.Workload.Trace.phases);
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let cfg =
            {
              (Net.Soak.default_config ~dir
                 (Net.Soak.Served
                    {
                      Net.Soak.default_served with
                      partitions = 0;
                      faults = Net.Chaos_proxy.no_faults;
                    }))
              with
              Net.Soak.restarts = 0;
            }
          in
          let v = NS.run cfg ~spec ~ops () in
          if not v.Net.Soak.pass then
            Alcotest.failf "incident replay failed:\n%s"
              (Net.Soak.verdict_to_string v);
          check_int "replay conserves exactly" v.Net.Soak.accepted
            v.Net.Soak.published)

(* ------------------------------------------------------------------ *)
(* Acceptance: the served soak                                         *)
(* ------------------------------------------------------------------ *)

(* ISSUE 7's end-to-end bar: Workload.Driver over a real socket, >= 1M ops
   total, >= 4 concurrent client connections, a live follower inside the
   envelope throughout, exact leader/follower equality after drain, and
   the server's wire totals visible in a scrape. *)
let test_served_soak () =
  let reg = Obs.Registry.create () in
  let srv =
    Srv.create ~metrics:reg ~read_timeout:10.0
      ~eval:(fun _ _ -> None)
      ~make_engine:(fun ~on_merge ->
        Srv.P.create ~shards:4 ~batch:512 ~on_merge ())
      ()
  in
  let cli =
    Net.Client.create ~metrics:reg ~conns:4 ~batch:256 ~flush_age:0.05
      ~host:"127.0.0.1" ~port:(Srv.port srv) ()
  in
  let rep =
    Rep.connect ~host:"127.0.0.1" ~port:(Srv.port srv) ()
  in
  (* An envelope sampler races the whole run. *)
  let stop_sampling = Atomic.make false in
  let violations = Atomic.make 0 in
  let samples = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop_sampling) do
          let f = Rep.published rep in
          let l = (Srv.P.stats (Srv.engine srv)).Srv.P.published in
          if f > l then Atomic.incr violations;
          Atomic.incr samples;
          Unix.sleepf 0.002
        done)
  in
  let spec =
    Workload.Trace.default_spec ~seed:0x1517L ~ops:1_000_000 ~universe:8192 ()
  in
  let ops = Workload.Trace.materialize spec in
  let report =
    Workload.Driver.run ~feeders:2 ~metrics:reg
      ~make_sink:(fun ~feeder:_ -> Net.Client.sink cli)
      ~spec ~ops ()
  in
  Net.Client.flush cli;
  Atomic.set stop_sampling true;
  Domain.join sampler;
  let cs = Net.Client.stats cli in
  check_bool "soak pushed >= 900k updates" true
    (cs.Net.Client.pushed >= 900_000);
  check_int "driver accepted = client pushed" report.Workload.Driver.accepted
    cs.Net.Client.pushed;
  check_int "no transport errors on loopback" 0 cs.Net.Client.errors;
  check_int "exact ack count" cs.Net.Client.pushed cs.Net.Client.acked;
  check_bool "envelope sampled" true (Atomic.get samples > 10);
  check_int "follower never led leader" 0 (Atomic.get violations);
  Net.Client.close cli;
  let stats = Srv.stop srv in
  check_bool ">= 4 concurrent connections" true (stats.Srv.conns >= 4);
  let est = Srv.P.stats (Srv.engine srv) in
  check_int "conservation: published = acked" cs.Net.Client.acked
    est.Srv.P.published;
  (* Exact convergence after the drain. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let rs = Rep.stats rep in
    if rs.Rep.published = est.Srv.P.published then rs
    else if Unix.gettimeofday () > deadline then rs
    else (
      Unix.sleepf 0.01;
      settle ())
  in
  let rs = settle () in
  check_int "follower converged exactly" est.Srv.P.published rs.Rep.published;
  Rep.close rep;
  (* The scrape's wire series are the totals the server reports, every
     connection (the 4 senders and the subscriber) folded in. *)
  let snap = Obs.Registry.snapshot reg in
  check_int "wire series = server frames_in" (Srv.stats srv).Srv.frames_in
    (Obs.Snapshot.counter_value snap "net_frames_in_total");
  check_int "aggregate ingest series" cs.Net.Client.acked
    (Obs.Snapshot.counter_value snap "net_ingested_total");
  check_int "client series" cs.Net.Client.acked
    (Obs.Snapshot.counter_value snap "client_acked_total");
  check_bool "driver series" true
    (Obs.Snapshot.counter_value snap "driver_issued_total" >= 1_000_000)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "push roundtrip" `Quick test_push_roundtrip;
          Alcotest.test_case "schema validation" `Quick
            test_frame_schema_validation;
          Alcotest.test_case "unknown kind" `Quick test_unknown_kind;
          Alcotest.test_case "span context on the wire" `Quick
            test_span_ctx_wire;
          Alcotest.test_case "batch count bounded by payload" `Quick
            test_batch_count_bounded;
          Alcotest.test_case "batch codec: pooled bytes = encode_request"
            `Quick test_batch_codec_parity;
          Alcotest.test_case "batch codec: same errors in place" `Quick
            test_batch_codec_error_parity;
          Alcotest.test_case "conn: a stream split at every offset" `Quick
            test_conn_split_stream;
          Alcotest.test_case "batch frame round trip allocates no heap block"
            `Quick test_batch_frame_allocates_no_heap_block;
        ] );
      ( "server",
        [
          Alcotest.test_case "batch/ack/query" `Quick test_server_batch_ack;
          Alcotest.test_case "unknown kind over wire" `Quick
            (test_server_unknown_kind_over_wire ~kind:77);
          Alcotest.test_case "retired kind 18 over wire" `Quick
            (test_server_unknown_kind_over_wire ~kind:18);
          Alcotest.test_case "retired kind 2 over wire" `Quick
            (test_server_unknown_kind_over_wire ~kind:2);
          Alcotest.test_case "retired query tags are malformed" `Quick
            test_retired_query_tags_malformed;
          Alcotest.test_case "adversarial peers" `Quick test_adversarial_peers;
          Alcotest.test_case "partial ack with a dead shard" `Quick
            test_server_partial_ack_dead_shard;
          Alcotest.test_case "Total reads the engine, not the hook" `Quick
            test_server_total_reads_engine;
          Alcotest.test_case "subscribe with a payload is malformed" `Quick
            test_subscribe_payload_malformed;
          Alcotest.test_case "registry does not grow with connections" `Quick
            test_registry_does_not_grow_with_connections;
        ] );
      ( "client",
        [
          Alcotest.test_case "batched roundtrip" `Quick test_client_roundtrip;
          Alcotest.test_case "dead server sheds" `Quick test_client_dead_server;
          Alcotest.test_case "retries a batch answered Malformed" `Quick
            test_client_retries_malformed;
          Alcotest.test_case "full buffer: try_push sheds, push waits" `Quick
            test_client_full_buffer;
          Alcotest.test_case "sink seam" `Quick test_sink_seam;
          Alcotest.test_case "tracing waterfall over loopback" `Quick
            test_trace_waterfall;
          Alcotest.test_case "pipelined: a window before the first ack" `Quick
            test_client_pipelines_window;
          Alcotest.test_case "acks resolve batches in FIFO order" `Quick
            test_client_fifo_acks;
          Alcotest.test_case "cut window: dedup answers what landed" `Quick
            test_client_cut_window_dedup;
          Alcotest.test_case "cut window: every attempt fails" `Quick
            test_client_window_exhausted;
          Alcotest.test_case "window within the dedup window" `Quick
            test_client_window_within_dedup;
          Alcotest.test_case "ring wraps in push order" `Quick
            test_client_ring_wraps;
          Alcotest.test_case "push allocates nothing" `Quick
            test_client_push_allocates_nothing;
          Alcotest.test_case "queue smaller than a batch is refused" `Quick
            test_client_queue_holds_a_batch;
          Alcotest.test_case "a full batch wakes the sender (1 conn)" `Quick
            (test_client_full_batch_wakes ~conns:1);
          Alcotest.test_case "a full batch wakes the sender (2 conns)" `Quick
            (test_client_full_batch_wakes ~conns:2);
          Alcotest.test_case "flush and close wake a sleeping sender" `Quick
            test_client_flush_close_wake;
          Alcotest.test_case "a lone key waits flush_age" `Quick
            test_client_lone_key_waits_flush_age;
          Alcotest.test_case "close leaves no descriptor open" `Quick
            test_client_close_leaves_no_fd;
        ] );
      ( "effectively-once",
        [
          Alcotest.test_case "at-least-once double-count regression" `Quick
            test_at_least_once_double_count;
          Alcotest.test_case "lost-ack retry acked, not re-applied" `Quick
            test_lost_ack_retry;
          Alcotest.test_case "dedup window" `Quick test_dedup_window;
          Alcotest.test_case "dedup sessions: LRU at the bound" `Quick
            test_dedup_session_lru;
          Alcotest.test_case "dedup journal compaction" `Quick
            test_dedup_journal_compaction;
          Alcotest.test_case "dedup journal survives restart" `Quick
            test_dedup_journal_survives_restart;
          Alcotest.test_case "exact acks through chaos" `Quick
            test_client_effectively_once_through_chaos;
        ] );
      ( "chaos-proxy",
        [
          Alcotest.test_case "forwarding and partition" `Quick
            test_proxy_forwarding_and_partition;
        ] );
      ( "replica",
        [
          Alcotest.test_case "envelope and exact convergence" `Quick
            test_replica_convergence;
          Alcotest.test_case "self-healing resync" `Quick test_replica_resync;
          Alcotest.test_case "stop right after connect converges" `Quick
            test_replica_stop_after_connect;
          Alcotest.test_case "countmin delta fold is all or nothing" `Quick
            test_replica_fold_all_or_nothing;
          Alcotest.test_case "a snapshot after the seed forces a resync" `Quick
            test_replica_snapshot_after_seed;
          Alcotest.test_case "follower of another seed ends Broken" `Quick
            test_replica_seed_mismatch;
        ] );
      ( "soak",
        [
          Alcotest.test_case "served soak 1M ops" `Quick test_served_soak;
          Alcotest.test_case "served chaos soak" `Quick test_served_chaos_soak;
          Alcotest.test_case "incident trace replay" `Quick
            test_incident_trace_replay;
        ] );
    ]
