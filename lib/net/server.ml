module Codec = Wire.Codec

module Make (M : Pipeline.Mergeable.S) = struct
  module P = Pipeline.Engine.Make (M)

  type sub = { sq : Bytes.t Pipeline.Mpsc.t }
  type conn_entry = { conn : Conn.t; mutable is_sub : bool }

  type stats = {
    conns : int;
    active : int;
    subscribers : int;
    bytes_in : int;
    bytes_out : int;
    frames_in : int;
    frames_out : int;
    decode_errors : int;
    batches : int;
    ingested : int;
    shed : int;
    queries : int;
    sessions : int;
    duplicates : int;
  }

  type t = {
    eng : P.t;
    lsock : Unix.file_descr;
    port : int;
    max_conns : int;
    mutable accept_d : unit Domain.t option;
    (* one handler domain per live connection, spawned by the accept loop
       (bounded by max_conns) and reaped as connections close — a fixed
       pool starves: a pooled handler pinned to a long-lived idle
       connection (a client's pooled sender, a subscriber) would block
       every connection still waiting for a handler *)
    hm : Mutex.t;
    mutable handler_ds : (unit Domain.t * bool Atomic.t) list;
    stopping : bool Atomic.t;
    stopped : bool Atomic.t;
    (* active connections, so stop can reset them under handlers' feet *)
    conns_m : Mutex.t;
    conns : (int, conn_entry) Hashtbl.t;
    conn_ids : int Atomic.t;
    (* closed connections' byte/frame totals, folded in at teardown *)
    mutable gone_bytes_in : int;
    mutable gone_bytes_out : int;
    mutable gone_frames_in : int;
    mutable gone_frames_out : int;
    (* replication fan-out list. A ref, not a mutable field: the on_merge
       closure is created before [t] is and must share the exact cell. *)
    subs_m : Mutex.t;
    subs : sub list ref;
    dedup : Dedup.t;
    c_conns : int Atomic.t;
    c_decode_errors : int Atomic.t;
    c_batches : int Atomic.t;
    c_ingested : int Atomic.t;
    c_shed : int Atomic.t;
    c_queries : int Atomic.t;
    query_timer : Obs.Timer.t option;
    tracer : Obs.Tracer.t option; (* decode/ingest spans for traced batches *)
    eval : M.t -> Frame.query -> (int * int) list option;
    read_timeout : float;
    sub_cap : int;
  }

  let port t = t.port
  let engine t = t.eng

  (* Byte and frame totals over every connection ever accepted: closed
     connections' (folded in at teardown) plus the live ones', read under
     [conns_m] so a closing connection counts exactly once. *)
  let wire_totals t =
    Mutex.protect t.conns_m @@ fun () ->
    Hashtbl.fold
      (fun _ e (bi, bo, fi, fo) ->
        ( bi + Conn.bytes_in e.conn,
          bo + Conn.bytes_out e.conn,
          fi + Conn.frames_in e.conn,
          fo + Conn.frames_out e.conn ))
      t.conns
      (t.gone_bytes_in, t.gone_bytes_out, t.gone_frames_in, t.gone_frames_out)

  let stats t =
    let bytes_in, bytes_out, frames_in, frames_out = wire_totals t in
    let active = Mutex.protect t.conns_m (fun () -> Hashtbl.length t.conns) in
    Mutex.lock t.subs_m;
    let subscribers = List.length !(t.subs) in
    Mutex.unlock t.subs_m;
    let ds = Dedup.stats t.dedup in
    {
      conns = Atomic.get t.c_conns;
      active;
      subscribers;
      bytes_in;
      bytes_out;
      frames_in;
      frames_out;
      decode_errors = Atomic.get t.c_decode_errors;
      batches = Atomic.get t.c_batches;
      ingested = Atomic.get t.c_ingested;
      shed = Atomic.get t.c_shed;
      queries = Atomic.get t.c_queries;
      sessions = ds.Dedup.sessions;
      duplicates = ds.Dedup.duplicates;
    }

  (* ------------------------- request handling ------------------------- *)

  let send_err conn code msg =
    ignore (Conn.send conn (Frame.encode_response (Frame.Err { code; msg })))

  (* Effectively-once: classify the batch against the dedup window BEFORE
     any key touches the engine. A duplicate is acked (with the original
     accepted count) but never re-applied; a fresh batch is journaled
     first, applied, then its actual accepted count recorded so an
     in-incarnation retry's ack stays exact. *)
  let handle_batch t conn ~session ~seq ~ctx keys =
    Atomic.incr t.c_batches;
    match Dedup.begin_batch t.dedup ~session ~seq ~count:(Array.length keys) with
    | Dedup.Duplicate k ->
        Conn.send conn
          (Frame.encode_response
             (Frame.Ack
                { epoch = snd (P.published_at t.eng); accepted = k; dup = true }))
    | Dedup.Fresh ->
        (* Hand the sampled context to the engine before the keys land, so
           the shard's next flush claims the mark and opens the queue span. *)
        if (not (Obs.Span.is_zero ctx)) && Array.length keys > 0 then
          P.trace_mark t.eng ~key:keys.(0) ~ctx;
        let ingest_start =
          match t.tracer with Some _ -> Obs.Tracer.now_ns () | None -> 0
        in
        let accepted = P.ingest_batch t.eng keys in
        (match t.tracer with
        | Some tr ->
            ignore
              (Obs.Tracer.record tr ~ctx ~stage:"ingest" ~start_ns:ingest_start
                 ~end_ns:(Obs.Tracer.now_ns ()))
        | None -> ());
        let shed = Array.length keys - accepted in
        ignore (Atomic.fetch_and_add t.c_ingested accepted);
        ignore (Atomic.fetch_and_add t.c_shed shed);
        Dedup.record t.dedup ~session ~seq ~accepted;
        Conn.send conn
          (Frame.encode_response
             (Frame.Ack
                { epoch = snd (P.published_at t.eng); accepted; dup = false }))

  let handle_hello t conn ~session =
    Dedup.register t.dedup ~session;
    Conn.send conn
      (Frame.encode_response
         (Frame.Ack
            { epoch = snd (P.published_at t.eng); accepted = 0; dup = false }))

  let handle_query t conn q =
    Atomic.incr t.c_queries;
    let t0 = Unix.gettimeofday () in
    let resp =
      match q with
      | Frame.Total ->
          let published, epoch = P.published_at t.eng in
          Frame.Result { epoch; pairs = [ (0, published) ] }
      | q -> (
          let r, epoch = P.query t.eng (fun g -> t.eval g q) in
          match r with
          | Some pairs -> Frame.Result { epoch; pairs }
          | None ->
              Frame.Err
                {
                  code = Frame.Unsupported;
                  msg = "sketch cannot answer " ^ Frame.query_to_string q;
                })
    in
    (match t.query_timer with
    | Some tm -> Obs.Timer.observe tm (Unix.gettimeofday () -. t0)
    | None -> ());
    Conn.send conn (Frame.encode_response resp)

  (* Replication sender: this handler stops serving requests and streams
     pushes until the follower dies, overflows, or the server stops.
     Registration happens under subs_m BEFORE the snapshot is taken, so every
     merge after this point is queued; a merge that is also already inside
     the snapshot arrives as a duplicate the follower's epoch filter skips.
     No ordering lets a delta fall into the gap. *)
  let sender_loop t (entry : conn_entry) =
    entry.is_sub <- true;
    let sub = { sq = Pipeline.Mpsc.create ~capacity:t.sub_cap } in
    Mutex.lock t.subs_m;
    t.subs := sub :: !(t.subs);
    Mutex.unlock t.subs_m;
    let blob, epoch, published = P.snapshot t.eng in
    let seed = Frame.encode_push (Frame.Snapshot { epoch; published; blob }) in
    let rec pump ok =
      if ok then
        match Pipeline.Mpsc.pop sub.sq with
        | None -> () (* queue closed: overflow-drop or server stop *)
        | Some frame -> pump (Conn.send entry.conn frame)
    in
    pump (Conn.send entry.conn seed);
    Mutex.lock t.subs_m;
    t.subs := List.filter (fun s -> s != sub) !(t.subs);
    Mutex.unlock t.subs_m;
    Pipeline.Mpsc.close sub.sq

  let request_loop t entry =
    let conn = entry.conn in
    let continue = ref true in
    while !continue && not (Atomic.get t.stopping) do
      match Conn.recv conn with
      | Error `Eof -> continue := false
      | Error `Timeout ->
          (* slow-loris or long-idle peer: reset without a response (there
             is no frame boundary to answer on) *)
          continue := false
      | Error (`Oversized n) ->
          Atomic.incr t.c_decode_errors;
          send_err conn Frame.Malformed
            (Printf.sprintf "declared payload of %d bytes exceeds cap" n);
          continue := false
      | Error `Bad_header ->
          Atomic.incr t.c_decode_errors;
          send_err conn Frame.Malformed "stream desync: not an IVLW frame";
          continue := false
      | Ok frame -> (
          let decode_start =
            match t.tracer with Some _ -> Obs.Tracer.now_ns () | None -> 0
          in
          match Frame.decode_request frame with
          | Error (Codec.Unknown_kind k) ->
              Atomic.incr t.c_decode_errors;
              send_err conn Frame.Unsupported
                (Printf.sprintf "unknown frame kind %d" k);
              continue := false
          | Error e ->
              Atomic.incr t.c_decode_errors;
              send_err conn Frame.Malformed (Codec.error_to_string e);
              continue := false
          | Ok (Frame.Batch { session; seq; ctx; keys }) ->
              let ctx =
                match t.tracer with
                | Some tr when not (Obs.Span.is_zero ctx) ->
                    let sid =
                      Obs.Tracer.record tr ~ctx ~stage:"decode"
                        ~start_ns:decode_start ~end_ns:(Obs.Tracer.now_ns ())
                    in
                    Obs.Span.with_parent ctx sid
                | _ -> ctx
              in
              if not (handle_batch t conn ~session ~seq ~ctx keys) then
                continue := false
          | Ok (Frame.Hello { session }) ->
              if not (handle_hello t conn ~session) then continue := false
          | Ok (Frame.Query q) ->
              if not (handle_query t conn q) then continue := false
          | Ok Frame.Subscribe ->
              sender_loop t entry;
              continue := false)
    done

  let serve_conn t fd =
    let conn = Conn.of_fd fd in
    Conn.set_read_timeout conn t.read_timeout;
    let id = Atomic.fetch_and_add t.conn_ids 1 in
    Atomic.incr t.c_conns;
    let entry = { conn; is_sub = false } in
    Mutex.lock t.conns_m;
    Hashtbl.replace t.conns id entry;
    Mutex.unlock t.conns_m;
    (try request_loop t entry
     with e ->
       (* a handler must survive any one connection; engine bugs surface in
          P.failures, not here *)
       ignore e);
    Mutex.lock t.conns_m;
    Hashtbl.remove t.conns id;
    t.gone_bytes_in <- t.gone_bytes_in + Conn.bytes_in conn;
    t.gone_bytes_out <- t.gone_bytes_out + Conn.bytes_out conn;
    t.gone_frames_in <- t.gone_frames_in + Conn.frames_in conn;
    t.gone_frames_out <- t.gone_frames_out + Conn.frames_out conn;
    Mutex.unlock t.conns_m;
    Conn.close conn

  (* Join handler domains whose connection has closed; returns the live
     count. Terminated-but-unjoined domains are not free, so the accept
     loop reaps on every iteration. *)
  let reap t =
    Mutex.lock t.hm;
    let fin, live =
      List.partition (fun (_, done_f) -> Atomic.get done_f) t.handler_ds
    in
    t.handler_ds <- live;
    let n = List.length live in
    Mutex.unlock t.hm;
    List.iter (fun (d, _) -> Domain.join d) fin;
    n

  let accept_loop t =
    while not (Atomic.get t.stopping) do
      let live = reap t in
      if live >= t.max_conns then
        (* at capacity: let the kernel backlog hold the peers *)
        Unix.sleepf 0.01
      else
        match Unix.select [ t.lsock ] [] [] 0.05 with
        | [], _, _ -> ()
        | _ -> (
            match Unix.accept t.lsock with
            | fd, _ ->
                let done_f = Atomic.make false in
                let d =
                  Domain.spawn (fun () ->
                      (try serve_conn t fd with _ -> ());
                      Atomic.set done_f true)
                in
                Mutex.lock t.hm;
                t.handler_ds <- (d, done_f) :: t.handler_ds;
                Mutex.unlock t.hm
            | exception Unix.Unix_error (_, _, _) -> ())
        | exception Unix.Unix_error (_, _, _) -> ()
    done

  (* ------------------------------ lifecycle --------------------------- *)

  let create ?(host = "127.0.0.1") ?(port = 0) ?(max_conns = 32)
      ?(read_timeout = 30.0) ?(sub_queue = 1024) ?dedup_dir ?metrics ?tracer
      ~eval ~make_engine () =
    if max_conns <= 0 then invalid_arg "Net.Server: max_conns must be positive";
    Conn.ignore_sigpipe ();
    let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    (try
       Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.listen lsock 128
     with e ->
       (try Unix.close lsock with _ -> ());
       raise e);
    let port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (* The fanout closure is wired into the engine at creation, so the
       subscriber list exists before the engine does. *)
    let subs_m = Mutex.create () in
    let subs = ref [] in
    let on_merge ~ctx ~epoch ~weight ~blob =
      ignore ctx;
      Mutex.lock subs_m;
      (match !subs with
      | [] -> ()
      | live ->
          let frame = Frame.encode_push (Frame.Delta { epoch; weight; blob }) in
          List.iter
            (fun s ->
              match Pipeline.Mpsc.try_push s.sq frame with
              | `Ok -> ()
              | `Full | `Closed ->
                  (* slow follower: close its queue (its sender drains what
                     is left, then resets) — a gap means it must
                     re-subscribe, never stall the merger *)
                  Pipeline.Mpsc.close s.sq)
            live);
      Mutex.unlock subs_m
    in
    let eng = make_engine ~on_merge in
    let dedup = Dedup.create ?dir:dedup_dir () in
    let t =
      {
        eng;
        lsock;
        port;
        max_conns;
        accept_d = None;
        hm = Mutex.create ();
        handler_ds = [];
        stopping = Atomic.make false;
        stopped = Atomic.make false;
        conns_m = Mutex.create ();
        conns = Hashtbl.create 32;
        conn_ids = Atomic.make 0;
        gone_bytes_in = 0;
        gone_bytes_out = 0;
        gone_frames_in = 0;
        gone_frames_out = 0;
        subs_m;
        subs;
        dedup;
        c_conns = Atomic.make 0;
        c_decode_errors = Atomic.make 0;
        c_batches = Atomic.make 0;
        c_ingested = Atomic.make 0;
        c_shed = Atomic.make 0;
        c_queries = Atomic.make 0;
        query_timer =
          Option.map
            (fun reg ->
              Obs.Registry.timer reg ~help:"Server-side query service time"
                "net_query_seconds")
            metrics;
        tracer;
        eval;
        read_timeout;
        sub_cap = sub_queue;
      }
    in
    (match metrics with
    | None -> ()
    | Some reg ->
        let c name help f = Obs.Registry.counter_fn reg ~help name f in
        let g name help f = Obs.Registry.gauge_fn reg ~help name f in
        c "net_conns_total" "Connections accepted" (fun () ->
            Atomic.get t.c_conns);
        (* one series per direction over all connections, so the registry
           does not grow with the connections served *)
        let w name help f = c name help (fun () -> f (wire_totals t)) in
        w "net_bytes_in_total" "Bytes received, all connections"
          (fun (b, _, _, _) -> b);
        w "net_bytes_out_total" "Bytes sent, all connections"
          (fun (_, b, _, _) -> b);
        w "net_frames_in_total" "Frames received, all connections"
          (fun (_, _, f, _) -> f);
        w "net_frames_out_total" "Frames sent, all connections"
          (fun (_, _, _, f) -> f);
        c "net_decode_errors_total" "Frames that failed to decode" (fun () ->
            Atomic.get t.c_decode_errors);
        c "net_batches_total" "Batch requests served" (fun () ->
            Atomic.get t.c_batches);
        c "net_ingested_total" "Keys accepted into the engine" (fun () ->
            Atomic.get t.c_ingested);
        c "net_shed_total" "Keys the engine refused" (fun () ->
            Atomic.get t.c_shed);
        c "net_queries_total" "Query requests served" (fun () ->
            Atomic.get t.c_queries);
        c "net_duplicates_suppressed_total"
          "Retried batches acked without re-application" (fun () ->
            (Dedup.stats t.dedup).Dedup.duplicates);
        g "net_sessions" "Sessions in the dedup window" (fun () ->
            float_of_int (Dedup.stats t.dedup).Dedup.sessions);
        g "net_conns_active" "Currently-open connections" (fun () ->
            Mutex.lock t.conns_m;
            let n = Hashtbl.length t.conns in
            Mutex.unlock t.conns_m;
            float_of_int n);
        g "net_subscribers" "Live replication subscribers" (fun () ->
            Mutex.lock t.subs_m;
            let n = List.length !(t.subs) in
            Mutex.unlock t.subs_m;
            float_of_int n));
    t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
    t

  let stop t =
    if not (Atomic.exchange t.stopped true) then begin
      Atomic.set t.stopping true;
      (* reset request connections so handlers unblock from recv; leave
         subscriber connections alive — the drain's final deltas still have
         to reach them *)
      Mutex.lock t.conns_m;
      Hashtbl.iter
        (fun _ e ->
          if not e.is_sub then
            try Unix.shutdown (Conn.fd e.conn) Unix.SHUTDOWN_ALL
            with _ -> ())
        t.conns;
      Mutex.unlock t.conns_m;
      (* drain flushes the partial shard deltas an idle engine retains; the
         fanout forwards the resulting merges to subscribers in order *)
      P.drain t.eng;
      Mutex.lock t.subs_m;
      List.iter (fun s -> Pipeline.Mpsc.close s.sq) !(t.subs);
      Mutex.unlock t.subs_m;
      (match t.accept_d with Some d -> Domain.join d | None -> ());
      t.accept_d <- None;
      Mutex.lock t.hm;
      let hs = t.handler_ds in
      t.handler_ds <- [];
      Mutex.unlock t.hm;
      List.iter (fun (d, _) -> Domain.join d) hs;
      (try Unix.close t.lsock with _ -> ());
      Dedup.close t.dedup
    end;
    stats t
end
