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
  (* shared buffer; producers block on [nonfull], senders sleep in a
     select on the wake pipe, since the age trigger needs a timed wait and
     stdlib Condition has none *)
  m : Mutex.t;
  nonfull : Condition.t;
  drained : Condition.t;
  (* a ring of [queue_cap] keys: [len] of them from [head], wrapping *)
  buf : int array;
  mutable head : int;
  mutable len : int;
  (* one slot: arrival of the oldest buffered key, a flat float so a push
     stores it without boxing *)
  oldest : Float.Array.t;
  mutable force : int;  (* pending flush requests: take partials now *)
  mutable in_flight : int;
  mutable closed : bool;
  (* The wake pipe. [sleeping] senders were told to sleep by [take] and
     have not yet woken; the pipe holds one byte iff [signalled]. Both are
     changed, and the byte written and read, only under [m]. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_byte : Bytes.t;
  mutable sleeping : int;
  mutable signalled : bool;
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

let window = 4
let first_backoff = 0.005

(* ------------------------------ senders ------------------------------- *)

(* A batch on the wire, not yet acked, in one of a sender's [window]
   pooled slots. Its frame is encoded once into the slot's buffer and
   resent as is, so a retry carries the same (session, seq); the slot, and
   its buffer, is reused once the batch resolves. *)
type slot = {
  mutable frame : Bytes.t;  (* grows to the largest frame composed *)
  mutable len : int;  (* frame bytes *)
  mutable n : int;  (* keys *)
  mutable ctx : Obs.Span.context;
  mutable start_ns : int;  (* flush span start: when the batch was taken *)
  mutable left : int;  (* retries left *)
}

(* Each sender owns a session: a distinct id announced with Hello on every
   (re)connection, plus a seq counter bumped once per composed batch.
   Retries resend the same (session, seq), which is what lets the server
   suppress the re-application when only the ack was lost. Up to [window]
   batches are on the wire at once: the [unacked] slots from [head],
   oldest first, wrapping; they were all sent, in seq order, on [conn]
   when it is [Some]. [take] copies a batch's keys into [keys] and the
   arrival of its oldest key into [oldest_at]. *)
type sender_state = {
  session : int64;
  mutable seq : int;
  mutable conn : Conn.t option;
  mutable ever_connected : bool;
  slots : slot array;
  mutable head : int;
  mutable unacked : int;
  keys : int array;
  oldest_at : Float.Array.t;
  mutable backoff : float;
}

(* The [i]th oldest unacked slot. *)
let slot st i = st.slots.((st.head + i) mod window)

let pop_oldest st =
  let u = st.slots.(st.head) in
  st.head <- (st.head + 1) mod window;
  st.unacked <- st.unacked - 1;
  u

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

(* A batch is resolved (acked, rejected or given up): [flush] may return
   once none is left and the buffer is empty. *)
let settle t =
  Mutex.lock t.m;
  t.in_flight <- t.in_flight - 1;
  if t.in_flight = 0 && t.len = 0 then Condition.broadcast t.drained;
  Mutex.unlock t.m

(* The connection is lost (transport failure, [Err Malformed], protocol
   confusion) with its unacked batches' fate unknown: each spends one
   attempt. One with none left is dropped, counted in both [shed] and
   [exhausted] — the server may or may not have applied it, the one
   residual at-least-once hazard, counted so verdicts can refuse to
   certify a run that hit it. The rest wait for the next connection,
   which resends them in seq order; the dedup window answers those that
   had landed. *)
let fail t st =
  Atomic.incr t.c_errors;
  drop_conn st;
  (* keep the slots with attempts left in order, at the front *)
  let kept = ref 0 in
  for i = 0 to st.unacked - 1 do
    let u = slot st i in
    if u.left > 0 then begin
      u.left <- u.left - 1;
      let j = (st.head + !kept) mod window and k = (st.head + i) mod window in
      st.slots.(k) <- st.slots.(j);
      st.slots.(j) <- u;
      incr kept
    end
    else begin
      ignore (Atomic.fetch_and_add t.c_shed u.n);
      ignore (Atomic.fetch_and_add t.c_exhausted u.n);
      settle t
    end
  done;
  st.unacked <- !kept;
  if st.unacked > 0 then begin
    Unix.sleepf st.backoff;
    st.backoff <- Float.min 0.2 (st.backoff *. 2.0)
  end

(* Dial and resend every unacked batch, oldest first. *)
let resend t st =
  match ensure_conn t st with
  | None -> fail t st
  | Some c ->
      let rec go i =
        i = st.unacked
        || (let u = slot st i in
            Conn.send_sub c u.frame ~len:u.len && go (i + 1))
      in
      if not (go 0) then fail t st

(* Read one response. The server answers a connection's frames one at a
   time and in order, so it is the oldest unacked batch's. *)
let await_response t st conn =
  match Conn.recv conn with
  | Error _ -> fail t st
  | Ok frame -> (
      match Frame.decode_response frame with
      | Ok (Frame.Ack { accepted; dup; _ }) ->
          let u = pop_oldest st in
          if dup then Atomic.incr t.c_duplicates;
          ignore (Atomic.fetch_and_add t.c_sent u.n);
          ignore (Atomic.fetch_and_add t.c_acked accepted);
          ignore (Atomic.fetch_and_add t.c_shed (u.n - accepted));
          (match t.tracer with
          | Some tr ->
              ignore
                (Obs.Tracer.record tr ~ctx:u.ctx ~stage:"flush"
                   ~start_ns:u.start_ns ~end_ns:(Obs.Tracer.now_ns ()))
          | None -> ());
          st.backoff <- first_backoff;
          settle t
      | Ok (Frame.Err { code = Frame.Malformed; _ }) ->
          (* The server could not decode what arrived: damage in transit,
             not in the batch. Resend it like any transport failure — a
             retry of an already-applied batch must reach the dedup window
             to be acked, or its weight is published without ever being
             acked. *)
          fail t st
      | Ok (Frame.Err _) ->
          (* the server answered: resending the same bytes cannot help *)
          let u = pop_oldest st in
          Atomic.incr t.c_errors;
          ignore (Atomic.fetch_and_add t.c_sent u.n);
          ignore (Atomic.fetch_and_add t.c_shed u.n);
          settle t
      | Ok (Frame.Result _) | Error _ ->
          (* protocol confusion: the stream cannot be trusted *)
          fail t st)

(* With [t.m] held: wake the sleeping senders, unless none sleeps or the
   byte that wakes them is already in the pipe. A push that completes a
   batch, [flush] and [close] call it. *)
let wake t =
  if t.sleeping > 0 && not t.signalled then begin
    t.signalled <- true;
    ignore (Unix.write t.wake_w t.wake_byte 0 1)
  end

(* Sleep until [timeout] seconds pass (none if [timeout <= 0]), the wake
   byte arrives, or a response waits on [acks]; returns [acks] iff one
   does. The first sender awake drains the byte, except after [close],
   whose byte stays to wake every sender. If select cannot watch the
   descriptors (one past FD_SETSIZE), wait a millisecond and report them
   all ready: the caller then blocks on the response, which is correct,
   only not multiplexed. *)
let sleep t acks timeout =
  (* a response already in the receive buffer is not on the socket *)
  let buffered = match acks with Some c -> Conn.buffered c | None -> false in
  let fds =
    match acks with Some c -> [ t.wake_r; Conn.fd c ] | None -> [ t.wake_r ]
  in
  let ready =
    if buffered then []
    else
      match Unix.select fds [] [] (if timeout > 0.0 then timeout else -1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      | exception Unix.Unix_error _ ->
          Unix.sleepf 0.001;
          fds
  in
  Mutex.lock t.m;
  t.sleeping <- t.sleeping - 1;
  if t.signalled && not t.closed then begin
    t.signalled <- false;
    ignore (Unix.read t.wake_r t.wake_byte 0 1)
  end;
  Mutex.unlock t.m;
  match acks with
  | Some c when buffered || List.mem (Conn.fd c) ready -> acks
  | _ -> None

(* [`Chunk k] once [k] keys are copied into [st.keys], [`Done] once closed
   and empty, or [`Sleep s]: nothing is due for [s] seconds, the time left
   until the oldest key is [flush_age] old ([flush_age] on an empty
   buffer, since no key pushed from now on is due sooner). A sleeper is
   counted in [sleeping] here, under [t.m], so whatever would make a batch
   due after this take sees it and wakes it: no wake-up is lost. *)
let take t st =
  Mutex.lock t.m;
  let n = t.len in
  let left =
    if n = 0 then t.flush_age
    else if n >= t.batch || t.force > 0 || t.closed then 0.0
    else Float.Array.get t.oldest 0 +. t.flush_age -. Unix.gettimeofday ()
  in
  let r =
    if n > 0 && left <= 0.0 then begin
      let k = min n t.batch in
      (* the arrival of the chunk's oldest key: the enqueue span's start
         when this chunk turns out to be sampled *)
      Float.Array.set st.oldest_at 0 (Float.Array.get t.oldest 0);
      let run = min k (t.queue_cap - t.head) in
      Array.blit t.buf t.head st.keys 0 run;
      Array.blit t.buf 0 st.keys run (k - run);
      t.head <- (if t.head + k >= t.queue_cap then t.head + k - t.queue_cap else t.head + k);
      t.len <- n - k;
      if t.len = 0 then Float.Array.set t.oldest 0 infinity;
      t.in_flight <- t.in_flight + 1;
      Condition.broadcast t.nonfull;
      `Chunk k
    end
    else if t.closed then `Done
    else begin
      t.sleeping <- t.sleeping + 1;
      `Sleep left
    end
  in
  Mutex.unlock t.m;
  r

(* Number a taken chunk of [k] keys and encode its frame into the next
   free slot, whose buffer is allocated at full batch size on its first
   use. A sampled chunk gets an "enqueue" span (oldest buffered arrival →
   take) and carries its re-parented context on the wire. *)
let compose t st k =
  let ctx =
    match t.tracer with
    | None -> Obs.Span.zero
    | Some tr -> (
        match Obs.Tracer.sample tr with
        | None -> Obs.Span.zero
        | Some ctx ->
            let now = Obs.Tracer.now_ns () in
            let oldest_at = Float.Array.get st.oldest_at 0 in
            let start_ns =
              if Float.is_finite oldest_at then int_of_float (oldest_at *. 1e9)
              else now
            in
            let sid =
              Obs.Tracer.record tr ~ctx ~stage:"enqueue" ~start_ns ~end_ns:now
            in
            Obs.Span.with_parent ctx sid)
  in
  let seq = st.seq in
  st.seq <- seq + 1;
  let u = slot st st.unacked in
  if Bytes.length u.frame < Frame.batch_frame_size k then
    u.frame <- Bytes.create (Frame.batch_frame_size t.batch);
  u.len <- Frame.write_batch u.frame ~session:st.session ~seq ~ctx st.keys ~len:k;
  u.n <- k;
  u.ctx <- ctx;
  u.start_ns <- (match t.tracer with Some _ -> Obs.Tracer.now_ns () | None -> 0);
  u.left <- t.retries;
  st.unacked <- st.unacked + 1;
  u

let sender_loop t i =
  let session = Int64.add t.session_base (Int64.of_int i) in
  let st =
    {
      session;
      seq = 0;
      conn = None;
      ever_connected = false;
      slots =
        Array.init window (fun _ ->
            {
              frame = Bytes.empty;
              len = 0;
              n = 0;
              ctx = Obs.Span.zero;
              start_ns = 0;
              left = 0;
            });
      head = 0;
      unacked = 0;
      keys = Array.make t.batch 0;
      oldest_at = Float.Array.make 1 infinity;
      backoff = first_backoff;
    }
  in
  let rec go () =
    match st.conn with
    | None when st.unacked > 0 ->
        resend t st;
        go ()
    | Some conn when st.unacked >= window ->
        await_response t st conn;
        go ()
    | conn -> (
        (* the connection, while it has batches to ack *)
        let acks = if st.unacked = 0 then None else conn in
        match (take t st, acks) with
        | `Chunk k, _ ->
            let u = compose t st k in
            (* without a connection, the next turn dials and sends it *)
            (match conn with
            | Some c -> if not (Conn.send_sub c u.frame ~len:u.len) then fail t st
            | None -> ());
            go ()
        | `Sleep left, _ ->
            (* wake for the ack too, not just the buffer: a batch that
               falls due meanwhile goes out without waiting for it *)
            (match sleep t acks left with
            | Some c -> await_response t st c
            | None -> ());
            go ()
        | `Done, Some c ->
            await_response t st c;
            go ()
        | `Done, None -> drop_conn st)
  in
  Obs.Thread_name.set (Printf.sprintf "sender-%d" i);
  go ()

(* ------------------------------ producers ----------------------------- *)

(* With [t.m] held: wait for a free slot. [false] once closed, or on a
   full ring when [block] is false. *)
let rec wait_room t ~block =
  if t.closed then false
  else if t.len < t.queue_cap then true
  else if block then begin
    Condition.wait t.nonfull t.m;
    wait_room t ~block
  end
  else false

let push_aux t k ~block =
  Mutex.lock t.m;
  let ok = wait_room t ~block in
  if ok then begin
    if t.len = 0 then Float.Array.set t.oldest 0 (Unix.gettimeofday ());
    let i = t.head + t.len in
    t.buf.(if i >= t.queue_cap then i - t.queue_cap else i) <- k;
    t.len <- t.len + 1;
    (* the key completes a batch, or (flush_age 0) is due at once *)
    if t.len = t.batch || t.flush_age <= 0.0 then wake t;
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
  wake t;
  while not (t.len = 0 && t.in_flight = 0) do
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
  let queued = t.len in
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
  (* a ring that cannot hold a full batch never fills one: every push
     into it would wait out [flush_age] *)
  if queue_cap < batch then
    invalid_arg "Net.Client: queue must hold at least one batch";
  Conn.ignore_sigpipe ();
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
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
      buf = Array.make queue_cap 0;
      head = 0;
      len = 0;
      oldest = Float.Array.make 1 infinity;
      force = 0;
      in_flight = 0;
      closed = false;
      wake_r;
      wake_w;
      wake_byte = Bytes.make 1 '!';
      sleeping = 0;
      signalled = false;
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
          let n = t.len in
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
    wake t;
    Mutex.unlock t.m;
    Array.iter Domain.join t.senders;
    t.senders <- [||];
    Unix.close t.wake_r;
    Unix.close t.wake_w;
    Mutex.lock t.qm;
    (match t.qconn with
    | Some c ->
        Conn.close c;
        t.qconn <- None
    | None -> ());
    Mutex.unlock t.qm
  end
