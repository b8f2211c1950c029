type stats = {
  pushed : int;
  acked : int;
  sent : int;
  shed : int;
  exhausted : int;
  errors : int;
  reconnects : int;
  duplicates_suppressed : int;
  queued : int;
}

type t = {
  host : string;
  port : int;
  session_base : int64;
  batch : int;
  flush_age : float;
  queue_cap : int;
  retries : int;
  read_timeout : float;
  (* shared buffer; senders poll (stdlib Condition has no timed wait, so the
     age trigger cannot be a blocking wait) while producers block properly *)
  m : Mutex.t;
  nonfull : Condition.t;
  drained : Condition.t;
  buf : int Queue.t;
  mutable oldest : float;  (* arrival of the oldest buffered key *)
  mutable force : int;  (* pending flush requests: take partials now *)
  mutable in_flight : int;
  mutable closed : bool;
  mutable senders : unit Domain.t array;
  c_pushed : int Atomic.t;
  c_acked : int Atomic.t;
  c_sent : int Atomic.t;
  c_shed : int Atomic.t;
  c_exhausted : int Atomic.t;
  c_errors : int Atomic.t;
  c_reconnects : int Atomic.t;
  c_duplicates : int Atomic.t;
  (* dedicated query connection, serialized *)
  qm : Mutex.t;
  mutable qconn : Conn.t option;
  tracer : Obs.Tracer.t option; (* batch sampling + enqueue/flush spans *)
}

let poll_interval = 0.0005

(* ------------------------------ senders ------------------------------- *)

(* Each sender owns a session: a distinct id announced with Hello on every
   (re)connection, plus a seq counter bumped once per composed batch.
   Retries resend the same (session, seq), which is what lets the server
   suppress the re-application when only the ack was lost. *)
type sender_state = {
  session : int64;
  mutable seq : int;
  mutable conn : Conn.t option;
  mutable ever_connected : bool;
}

let drop_conn st =
  match st.conn with
  | Some c ->
      Conn.close c;
      st.conn <- None
  | None -> ()

let hello st conn =
  if not (Conn.send conn (Frame.encode_request (Frame.Hello { session = st.session })))
  then false
  else
    match Conn.recv conn with
    | Error _ -> false
    | Ok frame -> (
        match Frame.decode_response frame with
        | Ok (Frame.Ack _) -> true
        | _ -> false)

let ensure_conn t st =
  match st.conn with
  | Some c -> Some c
  | None -> (
      match Conn.connect ~host:t.host ~port:t.port with
      | c ->
          Conn.set_read_timeout c t.read_timeout;
          if hello st c then begin
            if st.ever_connected then Atomic.incr t.c_reconnects;
            st.ever_connected <- true;
            st.conn <- Some c;
            Some c
          end
          else begin
            Conn.close c;
            None
          end
      | exception _ -> None)

let attempt t st ~seq ~ctx keys =
  match ensure_conn t st with
  | None -> `Transport
  | Some conn ->
      if
        not
          (Conn.send conn
             (Frame.encode_request
                (Frame.Batch { session = st.session; seq; ctx; keys })))
      then begin
        drop_conn st;
        `Transport
      end
      else begin
        match Conn.recv conn with
        | Error _ ->
            drop_conn st;
            `Transport
        | Ok frame -> (
            match Frame.decode_response frame with
            | Ok (Frame.Ack { accepted; dup; _ }) -> `Acked (accepted, dup)
            | Ok (Frame.Err { code = Frame.Malformed; _ }) ->
                (* The server could not decode what arrived: damage in
                   transit, not in the batch. Resend it like any transport
                   failure — a retry of an already-applied batch must reach
                   the dedup window to be acked, or its weight is published
                   without ever being acked. *)
                drop_conn st;
                `Transport
            | Ok (Frame.Err { code; msg }) ->
                `Rejected (Frame.err_code_to_string code ^ ": " ^ msg)
            | Ok (Frame.Result _) | Error _ ->
                (* protocol confusion: the stream cannot be trusted *)
                drop_conn st;
                `Transport)
      end

let deliver t st ~ctx keys =
  let n = Array.length keys in
  (* one seq per composed batch — every retry below reuses it *)
  let seq = st.seq in
  st.seq <- st.seq + 1;
  (* flush span: send attempt (retries included) through the server's ack *)
  let start_ns = Obs.Tracer.now_ns () in
  let rec go left backoff =
    match attempt t st ~seq ~ctx keys with
    | `Acked (k, dup) ->
        if dup then Atomic.incr t.c_duplicates;
        ignore (Atomic.fetch_and_add t.c_sent n);
        ignore (Atomic.fetch_and_add t.c_acked k);
        ignore (Atomic.fetch_and_add t.c_shed (n - k));
        (match t.tracer with
        | Some tr ->
            ignore
              (Obs.Tracer.record tr ~ctx ~stage:"flush" ~start_ns
                 ~end_ns:(Obs.Tracer.now_ns ()))
        | None -> ())
    | `Rejected _ ->
        (* the server answered: resending the same bytes cannot help *)
        Atomic.incr t.c_errors;
        ignore (Atomic.fetch_and_add t.c_sent n);
        ignore (Atomic.fetch_and_add t.c_shed n)
    | `Transport ->
        Atomic.incr t.c_errors;
        if left > 0 then begin
          Unix.sleepf backoff;
          go (left - 1) (Float.min 0.2 (backoff *. 2.0))
        end
        else begin
          ignore (Atomic.fetch_and_add t.c_shed n);
          (* retry budget gone with the batch's fate unknown: the server
             may or may not have applied it — the one residual
             at-least-once hazard, counted so verdicts can refuse to
             certify a run that hit it *)
          ignore (Atomic.fetch_and_add t.c_exhausted n)
        end
  in
  go t.retries 0.005

let take t =
  Mutex.lock t.m;
  let n = Queue.length t.buf in
  let due =
    n > 0
    && (n >= t.batch || t.force > 0 || t.closed
       || Unix.gettimeofday () -. t.oldest >= t.flush_age)
  in
  let r =
    if due then begin
      let k = min n t.batch in
      let oldest_at = t.oldest in
      let arr = Array.init k (fun _ -> Queue.pop t.buf) in
      if Queue.is_empty t.buf then t.oldest <- infinity;
      t.in_flight <- t.in_flight + 1;
      Condition.broadcast t.nonfull;
      (* oldest_at: arrival of the chunk's oldest key — the enqueue span's
         start when this chunk turns out to be sampled *)
      `Chunk (arr, oldest_at)
    end
    else if t.closed && n = 0 then `Done
    else `Wait
  in
  Mutex.unlock t.m;
  r

let sender_loop t i =
  let session = Int64.add t.session_base (Int64.of_int i) in
  let st = { session; seq = 0; conn = None; ever_connected = false } in
  let rec go () =
    match take t with
    | `Done -> drop_conn st
    | `Wait ->
        Unix.sleepf poll_interval;
        go ()
    | `Chunk (arr, oldest_at) ->
        (* Roll the sampling die per composed batch. A sampled chunk gets
           an "enqueue" span (oldest buffered arrival → take) and hands
           its re-parented context to deliver, which puts it on the wire. *)
        let ctx =
          match t.tracer with
          | None -> Obs.Span.zero
          | Some tr -> (
              match Obs.Tracer.sample tr with
              | None -> Obs.Span.zero
              | Some ctx ->
                  let now = Obs.Tracer.now_ns () in
                  let start_ns =
                    if Float.is_finite oldest_at then
                      int_of_float (oldest_at *. 1e9)
                    else now
                  in
                  let sid =
                    Obs.Tracer.record tr ~ctx ~stage:"enqueue" ~start_ns
                      ~end_ns:now
                  in
                  Obs.Span.with_parent ctx sid)
        in
        deliver t st ~ctx arr;
        Mutex.lock t.m;
        t.in_flight <- t.in_flight - 1;
        if t.in_flight = 0 && Queue.is_empty t.buf then
          Condition.broadcast t.drained;
        Mutex.unlock t.m;
        go ()
  in
  go ()

(* ------------------------------ producers ----------------------------- *)

let push_aux t k ~block =
  Mutex.lock t.m;
  let rec wait_room () =
    if t.closed then false
    else if Queue.length t.buf < t.queue_cap then true
    else if block then begin
      Condition.wait t.nonfull t.m;
      wait_room ()
    end
    else false
  in
  let ok = wait_room () in
  if ok then begin
    if Queue.is_empty t.buf then t.oldest <- Unix.gettimeofday ();
    Queue.push k t.buf;
    Atomic.incr t.c_pushed
  end
  else if not t.closed then Atomic.incr t.c_shed;
  Mutex.unlock t.m;
  ok

let push t k = push_aux t k ~block:true
let try_push t k = push_aux t k ~block:false

let flush t =
  Mutex.lock t.m;
  t.force <- t.force + 1;
  while not (Queue.is_empty t.buf && t.in_flight = 0) do
    Condition.wait t.drained t.m
  done;
  t.force <- t.force - 1;
  Mutex.unlock t.m

(* ------------------------------ queries ------------------------------- *)

let query t q =
  Mutex.lock t.qm;
  let ensure () =
    match t.qconn with
    | Some c -> Some c
    | None -> (
        match Conn.connect ~host:t.host ~port:t.port with
        | c ->
            Conn.set_read_timeout c t.read_timeout;
            t.qconn <- Some c;
            Some c
        | exception _ -> None)
  in
  let reset () =
    match t.qconn with
    | Some c ->
        Conn.close c;
        t.qconn <- None
    | None -> ()
  in
  let r =
    match ensure () with
    | None ->
        Atomic.incr t.c_errors;
        Error "connect failed"
    | Some conn ->
        if not (Conn.send conn (Frame.encode_request (Frame.Query q))) then begin
          Atomic.incr t.c_errors;
          reset ();
          Error "send failed"
        end
        else begin
          match Conn.recv conn with
          | Error e ->
              Atomic.incr t.c_errors;
              reset ();
              Error (Conn.recv_error_to_string e)
          | Ok frame -> (
              match Frame.decode_response frame with
              | Ok resp -> Ok resp
              | Error e ->
                  Atomic.incr t.c_errors;
                  reset ();
                  Error (Wire.Codec.error_to_string e))
        end
  in
  Mutex.unlock t.qm;
  r

(* ------------------------------ lifecycle ----------------------------- *)

let stats t =
  Mutex.lock t.m;
  let queued = Queue.length t.buf in
  Mutex.unlock t.m;
  {
    pushed = Atomic.get t.c_pushed;
    acked = Atomic.get t.c_acked;
    sent = Atomic.get t.c_sent;
    shed = Atomic.get t.c_shed;
    exhausted = Atomic.get t.c_exhausted;
    errors = Atomic.get t.c_errors;
    reconnects = Atomic.get t.c_reconnects;
    duplicates_suppressed = Atomic.get t.c_duplicates;
    queued;
  }

(* A session id must be distinct across client processes. Wall clock in
   microseconds mixed with the pid is distinct enough for a test fleet;
   callers who need determinism pass [?session]. Each sender gets base +
   its index. *)
let default_session_base () =
  let t = Int64.of_float (Unix.gettimeofday () *. 1e6) in
  let pid = Int64.of_int (Unix.getpid () land 0xffff) in
  Int64.logor (Int64.shift_left t 16) pid

let create ?(conns = 1) ?(batch = 256) ?(flush_age = 0.05) ?queue
    ?(retries = 3) ?(read_timeout = 10.0) ?session ?metrics ?tracer ~host
    ~port () =
  if conns <= 0 then invalid_arg "Net.Client: conns must be positive";
  if batch <= 0 then invalid_arg "Net.Client: batch must be positive";
  let session_base =
    match session with
    | Some s -> s
    | None -> default_session_base ()
  in
  let queue_cap = Option.value queue ~default:(8 * batch) in
  if queue_cap <= 0 then invalid_arg "Net.Client: queue must be positive";
  Conn.ignore_sigpipe ();
  let t =
    {
      host;
      port;
      session_base;
      batch;
      flush_age;
      queue_cap;
      retries;
      read_timeout;
      m = Mutex.create ();
      nonfull = Condition.create ();
      drained = Condition.create ();
      buf = Queue.create ();
      oldest = infinity;
      force = 0;
      in_flight = 0;
      closed = false;
      senders = [||];
      c_pushed = Atomic.make 0;
      c_acked = Atomic.make 0;
      c_sent = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_exhausted = Atomic.make 0;
      c_errors = Atomic.make 0;
      c_reconnects = Atomic.make 0;
      c_duplicates = Atomic.make 0;
      qm = Mutex.create ();
      qconn = None;
      tracer;
    }
  in
  (match metrics with
  | None -> ()
  | Some reg ->
      let c name help f = Obs.Registry.counter_fn reg ~help name f in
      c "client_pushed_total" "Keys accepted into the client buffer" (fun () ->
          Atomic.get t.c_pushed);
      c "client_acked_total" "Keys the server acknowledged" (fun () ->
          Atomic.get t.c_acked);
      c "client_shed_total" "Keys shed client-side or lost to retries"
        (fun () -> Atomic.get t.c_shed);
      c "client_errors_total" "Transport/protocol failures" (fun () ->
          Atomic.get t.c_errors);
      c "client_reconnects_total" "Connection re-establishments" (fun () ->
          Atomic.get t.c_reconnects);
      c "client_duplicates_suppressed_total"
        "Retried batches the server acked without re-applying" (fun () ->
          Atomic.get t.c_duplicates);
      c "client_exhausted_total"
        "Keys dropped after retry exhaustion (delivery fate unknown)"
        (fun () -> Atomic.get t.c_exhausted);
      Obs.Registry.gauge_fn reg ~help:"Keys currently buffered"
        "client_queue_depth" (fun () ->
          Mutex.lock t.m;
          let n = Queue.length t.buf in
          Mutex.unlock t.m;
          float_of_int n));
  t.senders <-
    Array.init conns (fun i -> Domain.spawn (fun () -> sender_loop t i));
  t

let sink t =
  Workload.Sink.make
    ~ingest:(fun k -> push t k)
    ~try_ingest:(fun k -> try_push t k)
    ~query:(fun k -> ignore (query t (Frame.Point k)))
    ~flush:(fun () -> flush t)
    ()

let close t =
  let was_closed =
    Mutex.lock t.m;
    let w = t.closed in
    Mutex.unlock t.m;
    w
  in
  if not was_closed then begin
    flush t;
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.m;
    Array.iter Domain.join t.senders;
    t.senders <- [||];
    Mutex.lock t.qm;
    (match t.qconn with
    | Some c ->
        Conn.close c;
        t.qconn <- None
    | None -> ());
    Mutex.unlock t.qm
  end
