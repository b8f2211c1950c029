let status_to_string = function
  | `Syncing -> "syncing"
  | `Live -> "live"
  | `Resyncing msg -> "resyncing: " ^ msg
  | `Broken msg -> "broken: " ^ msg
  | `Closed -> "closed"

(* The apply loop's receive wait: an idle leader means patience, not
   failure. *)
let read_timeout = 1.0

(* The pause before each redial while resyncing. *)
let resync_backoff = 0.05

module Make (M : Pipeline.Mergeable.S) = struct
  type status =
    [ `Syncing | `Live | `Resyncing of string | `Broken of string | `Closed ]

  type stats = {
    epoch : int;
    published : int;
    deltas : int;
    skipped : int;
    resyncs : int;
    last_break : string option;
    status : status;
  }

  type t = {
    host : string;
    port : int;
    tracer : Obs.Tracer.t option;
    m : Mutex.t;
    mutable conn : Conn.t option;
    mutable sketch : M.t option;
    mutable epoch : int;
    mutable published : int;
    mutable deltas : int;
    mutable skipped : int;
    mutable resyncs : int;
    mutable last_break : string option;
    mutable st : status;
    mutable closing : bool;
    mutable apply_d : unit Domain.t option;
  }

  let current_conn t =
    Mutex.lock t.m;
    let c = t.conn in
    Mutex.unlock t.m;
    c

  (* Dial + subscribe, the whole handshake. The caller decides what a
     [None] means (first connect raises, resync retries). *)
  let dial t =
    match Conn.connect ~host:t.host ~port:t.port with
    | exception _ -> None
    | conn ->
        Conn.set_read_timeout conn read_timeout;
        if Conn.send conn (Frame.encode_request Frame.Subscribe) then
          Some conn
        else begin
          Conn.close conn;
          None
        end

  (* Tear the stream down and re-subscribe from scratch. The old sketch is
     kept queryable meanwhile — during catch-up the replica serves its last
     applied epoch, which still sits inside the leader's envelope (it can
     only lag further, never invent weight). Returns [true] once a new
     subscription is live on the wire (the fresh snapshot then resets the
     epoch filter), [false] once the replica is closing. *)
  let resync t reason =
    Mutex.lock t.m;
    (match t.conn with Some c -> Conn.close c | None -> ());
    t.conn <- None;
    t.last_break <- Some reason;
    if t.closing then begin
      Mutex.unlock t.m;
      false
    end
    else begin
      t.st <- `Resyncing reason;
      Mutex.unlock t.m;
      let rec redial () =
        if t.closing then false
        else begin
          (* pace every attempt, not just failed connects: a refusing
             middlebox (partition, dead upstream) often accepts the dial
             and swallows the subscribe before resetting, so a completed
             handshake send is no proof the stream is healthy — without
             this the break-redial cycle spins at wire speed *)
          Unix.sleepf resync_backoff;
          if t.closing then false
          else
            match dial t with
            | None -> redial ()
              | Some conn ->
                Mutex.lock t.m;
                if t.closing then begin
                  Mutex.unlock t.m;
                  Conn.close conn;
                  false
                end
                else begin
                  t.conn <- Some conn;
                  t.resyncs <- t.resyncs + 1;
                  Mutex.unlock t.m;
                  true
                end
        end
      in
      redial ()
    end

  (* A seed snapshot that crossed the wire intact (its push frame's checksum
     held) but does not decode is what the leader holds: another sketch,
     shape or seed (the CountMin family fingerprint). Every resync would
     fetch the same bytes, so the stream ends [`Broken] at once, and what
     was never applied is never published. *)
  let refuse t reason =
    Mutex.lock t.m;
    (match t.conn with Some c -> Conn.close c | None -> ());
    t.conn <- None;
    t.last_break <- Some reason;
    if not t.closing then t.st <- `Broken reason;
    Mutex.unlock t.m

  let apply_snapshot t ~epoch ~published ~blob =
    match M.decode blob with
    | Error e -> Error ("snapshot decode: " ^ Wire.Codec.error_to_string e)
    | Ok sk ->
        Mutex.lock t.m;
        t.sketch <- Some sk;
        t.epoch <- epoch;
        t.published <- published;
        t.st <- `Live;
        Mutex.unlock t.m;
        Ok ()

  (* The epoch filter: exactly-next applies, older duplicates (state the
     seed snapshot already contains) are skipped, anything else is a gap —
     the leader dropped us, and resuming would silently undercount. *)
  let apply_delta t ~epoch ~weight ~blob =
    Mutex.lock t.m;
    let verdict =
      match t.sketch with
      | None -> `Gap  (* a delta before any snapshot: broken handshake *)
      | Some _ when epoch <= t.epoch -> `Skip
      | Some _ when epoch = t.epoch + 1 -> `Apply
      | Some _ -> `Gap
    in
    (match verdict with
    | `Skip -> t.skipped <- t.skipped + 1
    | _ -> ());
    Mutex.unlock t.m;
    match verdict with
    | `Skip -> Ok ()
    | `Gap ->
        Error (Printf.sprintf "epoch gap: got %d at local %d" epoch t.epoch)
    | `Apply -> (
        (* deltas arrive without a wire context (the fan-out strips it),
           so replica spans are locally sampled roots: the same tracer
           rate decides, and a sampled apply times validate + fold *)
        let ctx =
          match t.tracer with
          | None -> Obs.Span.zero
          | Some tr -> (
              match Obs.Tracer.sample tr with
              | Some ctx -> ctx
              | None -> Obs.Span.zero)
        in
        let t0 =
          if Obs.Span.is_zero ctx then 0 else Obs.Tracer.now_ns ()
        in
        (* validated outside the mutex, folded in place under it: a bad
           delta leaves the served state untouched and forces a resync *)
        match M.fold blob with
        | Error e -> Error ("delta decode: " ^ Wire.Codec.error_to_string e)
        | Ok apply ->
            Mutex.lock t.m;
            t.sketch <- Option.map apply t.sketch;
            t.epoch <- epoch;
            t.published <- t.published + weight;
            t.deltas <- t.deltas + 1;
            Mutex.unlock t.m;
            (match t.tracer with
            | Some tr when not (Obs.Span.is_zero ctx) ->
                ignore
                  (Obs.Tracer.record tr ~ctx ~stage:"replica_apply"
                     ~start_ns:t0 ~end_ns:(Obs.Tracer.now_ns ()))
            | _ -> ());
            Ok ())

  (* Subscribe on [conn] and apply the seed snapshot. A receive timeout
     keeps waiting, as in the apply loop: the leader answers every
     subscribe with its seed, and a dead peer surfaces as an error. *)
  let handshake t conn =
    if not (Conn.send conn (Frame.encode_request Frame.Subscribe)) then
      `Failed
    else
      let rec seed () =
        match Conn.recv conn with
        | Error `Timeout -> seed ()
        | Error _ -> `Failed
        | Ok frame -> (
            match Frame.decode_push frame with
            | Ok (Frame.Snapshot { epoch; published; blob }) -> (
                match apply_snapshot t ~epoch ~published ~blob with
                | Ok () -> `Live
                | Error msg -> `Refused msg)
            | Ok (Frame.Delta _) | Error _ -> `Failed)
      in
      seed ()

  (* Every failure funnels into [resync]: transport errors, delta decode
     failures, epoch gaps. The loop only exits on close, when the resync
     budget marks the stream [`Broken], or on a seed snapshot it [refuse]s. *)
  let rec apply_loop t =
    if not t.closing then
      match current_conn t with
      | None -> if resync t "no connection" then apply_loop t
      | Some conn -> (
          match Conn.recv conn with
          | Error `Timeout -> apply_loop t (* idle leader: keep waiting *)
          | Error e ->
              if (not t.closing) && resync t (Conn.recv_error_to_string e)
              then apply_loop t
          | Ok frame -> (
              match Frame.decode_push frame with
              | Error e ->
                  if resync t (Wire.Codec.error_to_string e) then apply_loop t
              | Ok (Frame.Snapshot { epoch; published; blob }) -> (
                  match apply_snapshot t ~epoch ~published ~blob with
                  | Ok () -> apply_loop t
                  | Error msg -> refuse t msg)
              | Ok (Frame.Delta { epoch; weight; blob }) -> (
                  match apply_delta t ~epoch ~weight ~blob with
                  | Ok () -> apply_loop t
                  | Error msg -> if resync t msg then apply_loop t)))

  let query t f =
    Mutex.lock t.m;
    let r =
      match t.sketch with
      | Some sk -> Some (f sk, t.epoch)
      | None -> None
    in
    Mutex.unlock t.m;
    r

  let stats t =
    Mutex.lock t.m;
    let s =
      {
        epoch = t.epoch;
        published = t.published;
        deltas = t.deltas;
        skipped = t.skipped;
        resyncs = t.resyncs;
        last_break = t.last_break;
        status = t.st;
      }
    in
    Mutex.unlock t.m;
    s

  let published t = (stats t).published
  let epoch t = (stats t).epoch
  let status t = (stats t).status

  let status_code = function
    | `Syncing -> 0.
    | `Live -> 1.
    | `Resyncing _ -> 2.
    | `Broken _ -> 3.
    | `Closed -> 4.

  let connect ?metrics ?tracer ~host ~port () =
    let conn = Conn.connect ~host ~port in
    Conn.set_read_timeout conn read_timeout;
    let t =
      {
        host;
        port;
        tracer;
        m = Mutex.create ();
        conn = Some conn;
        sketch = None;
        epoch = -1;
        published = 0;
        deltas = 0;
        skipped = 0;
        resyncs = 0;
        last_break = None;
        st = `Syncing;
        closing = false;
        apply_d = None;
      }
    in
    (* Synchronous handshake: the leader registers a subscription before
       it sends the seed snapshot, so once the seed is applied every later
       merge — a stopping leader's final fan-out included — is queued for
       this follower. Returning any earlier, a leader stopped before it
       registered the subscriber would reset it, and a follower cannot
       resync from a dead leader. A handshake that fails hands over to
       the apply domain's resync path. *)
    let seeded = handshake t conn in
    (match seeded with
    | `Live -> ()
    | `Failed ->
        Conn.close conn;
        t.conn <- None
    | `Refused msg -> refuse t msg);
    (match metrics with
    | None -> ()
    | Some reg ->
        let c name help f = Obs.Registry.counter_fn reg ~help name f in
        c "replica_resyncs_total" "Stream re-subscriptions after a break"
          (fun () -> (stats t).resyncs);
        c "replica_deltas_total" "Epoch deltas applied" (fun () ->
            (stats t).deltas);
        c "replica_skipped_total" "Duplicate epochs skipped" (fun () ->
            (stats t).skipped);
        let g name help f = Obs.Registry.gauge_fn reg ~help name f in
        g "replica_epoch" "Last applied epoch" (fun () ->
            float_of_int (stats t).epoch);
        g "replica_published" "Replicated published weight" (fun () ->
            float_of_int (stats t).published);
        g "replica_status"
          "0 syncing, 1 live, 2 resyncing, 3 broken, 4 closed" (fun () ->
            status_code (stats t).status));
    (match seeded with
    | `Refused _ -> ()
    | `Live | `Failed ->
        t.apply_d <- Some (Domain.spawn (fun () -> apply_loop t)));
    t

  let wait_epoch ?(timeout = 10.0) t e =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      let s = stats t in
      if s.epoch >= e && s.status = `Live then true
      else if
        (match s.status with `Broken _ | `Closed -> true | _ -> false)
        || Unix.gettimeofday () > deadline
      then false
      else begin
        Unix.sleepf 0.002;
        go ()
      end
    in
    go ()

  let close t =
    Mutex.lock t.m;
    let already = t.closing in
    t.closing <- true;
    (match t.conn with Some c -> Conn.close c | None -> ());
    Mutex.unlock t.m;
    if not already then begin
      (match t.apply_d with Some d -> Domain.join d | None -> ());
      t.apply_d <- None;
      Mutex.lock t.m;
      (match t.st with `Broken _ -> () | _ -> t.st <- `Closed);
      Mutex.unlock t.m
    end
end
