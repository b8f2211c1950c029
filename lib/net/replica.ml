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

  (* Open a connection to the leader; raises if it cannot. *)
  let dial t =
    let conn = Conn.connect ~host:t.host ~port:t.port in
    Conn.set_read_timeout conn read_timeout;
    conn

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

  (* The one way onto the stream, at connect and at every resync: send
     Subscribe on a fresh [conn], install it (so [close] can reset it) and
     apply the seed snapshot the leader answers with. The leader registers
     the subscription before it sends the seed, so once the seed is applied
     every later merge is queued for this follower. A receive timeout keeps
     waiting, as in the apply loop: the leader answers every subscribe with
     its seed, and a dead peer surfaces as an error. A resync counts once
     its subscribe is on the wire. *)
  let subscribe t conn ~resync =
    let installed =
      Conn.send conn (Frame.encode_request Frame.Subscribe)
      && Mutex.protect t.m (fun () ->
             if not t.closing then begin
               t.conn <- Some conn;
               if resync then t.resyncs <- t.resyncs + 1
             end;
             not t.closing)
    in
    let rec seed () =
      match Conn.recv_view conn with
      | Error `Timeout when not t.closing -> seed ()
      | Error _ -> `Failed
      | Ok { buf; off; len } -> (
          match Frame.decode_push_sub buf ~off ~len with
          | Ok (Frame.Snapshot { epoch; published; blob }) -> (
              match apply_snapshot t ~epoch ~published ~blob with
              | Ok () -> `Live
              | Error msg ->
                  refuse t msg;
                  `Refused)
          | Ok (Frame.Delta _) | Error _ -> `Failed)
    in
    match if installed then seed () else `Failed with
    | `Failed ->
        (* under the mutex, like every other close, so [close] never
           closes the same connection concurrently *)
        Mutex.protect t.m (fun () ->
            (match t.conn with
            | Some c when c == conn -> t.conn <- None
            | _ -> ());
            Conn.close conn);
        `Failed
    | r -> r

  (* Tear the stream down and re-subscribe from scratch. The old sketch is
     kept queryable meanwhile — during catch-up the replica serves its last
     applied epoch, which still sits inside the leader's envelope (it can
     only lag further, never invent weight). Returns [true] once a fresh
     seed is applied (its epoch resets the filter), [false] once the
     replica is closing or the seed is refused. *)
  let resync t reason =
    Mutex.lock t.m;
    (match t.conn with Some c -> Conn.close c | None -> ());
    t.conn <- None;
    t.last_break <- Some reason;
    let closing = t.closing in
    if not closing then t.st <- `Resyncing reason;
    Mutex.unlock t.m;
    let rec redial () =
      (* pace every attempt, not just failed connects: a refusing
         middlebox (partition, dead upstream) often accepts the dial and
         swallows the subscribe before resetting, so without this the
         break-redial cycle spins at wire speed *)
      Unix.sleepf resync_backoff;
      (not t.closing)
      &&
      match dial t with
      | exception _ -> redial ()
      | conn -> (
          match subscribe t conn ~resync:true with
          | `Live -> true
          | `Failed -> redial ()
          | `Refused -> false)
    in
    (not closing) && redial ()

  (* Every failure funnels into [resync]: transport errors, delta decode
     failures, epoch gaps, and a snapshot after the seed (a stream has one,
     first). The loop only exits on close, or on a seed snapshot it
     [refuse]s. *)
  let rec apply_loop t =
    if not t.closing then
      match current_conn t with
      | None -> if resync t "no connection" then apply_loop t
      | Some conn -> (
          match Conn.recv_view conn with
          | Error `Timeout -> apply_loop t (* idle leader: keep waiting *)
          | Error e ->
              if (not t.closing) && resync t (Conn.recv_error_to_string e)
              then apply_loop t
          | Ok { buf; off; len } -> (
              let applied =
                match Frame.decode_push_sub buf ~off ~len with
                | Error e -> Error (Wire.Codec.error_to_string e)
                | Ok (Frame.Snapshot _) -> Error "snapshot after the seed"
                | Ok (Frame.Delta { epoch; weight; blob }) ->
                    apply_delta t ~epoch ~weight ~blob
              in
              match applied with
              | Ok () -> apply_loop t
              | Error msg -> if resync t msg then apply_loop t))

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
    let t =
      {
        host;
        port;
        tracer;
        m = Mutex.create ();
        conn = None;
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
    (* Seed before returning: once the seed is applied every later merge —
       a stopping leader's final fan-out included — is queued for this
       follower. Returning any earlier, a leader stopped before it
       registered the subscriber would reset it, and a follower cannot
       resync from a dead leader. A handshake that fails hands over to the
       apply domain's resync path. *)
    let seeded = subscribe t (dial t) ~resync:false in
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
    | `Refused -> ()
    | `Live | `Failed ->
        t.apply_d <-
          Some
            (Domain.spawn (fun () ->
                 Obs.Thread_name.set "replica";
                 apply_loop t)));
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
