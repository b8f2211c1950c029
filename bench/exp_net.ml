(* E16: what the served tier costs over loopback.

   The pipeline's ingestion numbers (E10/E13) are in-process; this
   experiment puts the same engine behind the lib/net server and measures
   the system a deployment actually sees:

   - ingest throughput (Mops/s) through the batching client as the sender
     connection count grows — the framing + ack round-trip tax on top of
     the engine, and whether extra connections buy it back;
   - query QPS as concurrent query connections grow — each query is a
     full frame round-trip answered from the replication mirror, so this
     prices the read path without sketch access;
   - a zero-tolerance envelope row: after every timed run the server is
     drained and the published weight must equal the client's acked count
     exactly (conservation over the wire). Unit "violations" makes any
     nonzero fatal in `bench compare` — loopback has no excuse.

   The robustness counterpart (E17) is the served chaos soak itself:
   `ivl-cli soak --served --bench-out`, gated against
   bench/baselines/BENCH_served_soak.json. *)

let ingest_ops = 200_000
let query_rounds = 2_000
let conn_counts = [ 1; 2; 4 ]

module MC = Pipeline.Targets.Counter
module Srv = Net.Server.Make (MC)

let start_server () =
  Srv.create ~read_timeout:10.0
    ~eval:(fun _ _ -> None)
    ~make_engine:(fun ~on_merge ->
      Srv.P.create ~shards:4 ~batch:512 ~on_merge ())
    ()

(* One producer, [conns] sender connections: the client's shared buffer
   decouples them, so this measures delivery parallelism, not producer
   parallelism. *)
let ingest_run conns =
  let srv = start_server () in
  let cli =
    Net.Client.create ~conns ~batch:256 ~flush_age:0.05 ~host:"127.0.0.1"
      ~port:(Srv.port srv) ()
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to ingest_ops - 1 do
    ignore (Net.Client.push cli (i land 8191))
  done;
  Net.Client.flush cli;
  let dt = Unix.gettimeofday () -. t0 in
  let cs = Net.Client.stats cli in
  Net.Client.close cli;
  ignore (Srv.stop srv);
  let published = (Srv.P.stats (Srv.engine srv)).Srv.P.published in
  let violations =
    (if published <> cs.Net.Client.acked then 1 else 0)
    + if cs.Net.Client.errors > 0 then 1 else 0
  in
  (float_of_int ingest_ops /. dt /. 1e6, violations)

(* [conns] independent query connections hammering Total in lockstep. *)
let query_run conns =
  let srv = start_server () in
  (* Some state so the mirror answer is non-trivial. *)
  let c = Net.Conn.connect ~host:"127.0.0.1" ~port:(Srv.port srv) in
  Net.Conn.set_read_timeout c 5.0;
  ignore
    (Net.Conn.send c
       (Net.Frame.encode_request
          (Net.Frame.Batch
             {
               session = 0L;
               seq = 0;
               ctx = Obs.Span.zero;
               keys = Array.init 4096 (fun i -> i);
             })));
  ignore (Net.Conn.recv c);
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init conns (fun _ ->
        Domain.spawn (fun () ->
            let q = Net.Conn.connect ~host:"127.0.0.1" ~port:(Srv.port srv) in
            Net.Conn.set_read_timeout q 5.0;
            let req = Net.Frame.encode_request (Net.Frame.Query Net.Frame.Total) in
            let ok = ref 0 in
            for _ = 1 to query_rounds do
              if Net.Conn.send q req then
                match Net.Conn.recv q with Ok _ -> incr ok | Error _ -> ()
            done;
            Net.Conn.close q;
            !ok))
  in
  let answered = List.fold_left (fun a d -> a + Domain.join d) 0 workers in
  let dt = Unix.gettimeofday () -. t0 in
  Net.Conn.close c;
  ignore (Srv.stop srv);
  let violations = if answered < conns * query_rounds then 1 else 0 in
  (float_of_int answered /. dt, violations)

let run () =
  Bench_util.section
    "E16: served tier over loopback (ingest Mops/s, query QPS vs connections)";
  let violations = ref 0 in
  let ingest_rows =
    List.map
      (fun conns ->
        let mops, viol = ingest_run conns in
        violations := !violations + viol;
        Bench_util.record ~exp:"net" ~name:"e16-ingest"
          ~params:[ ("conns", string_of_int conns) ]
          mops;
        [ string_of_int conns; Bench_util.fmt_float ~digits:2 mops ])
      conn_counts
  in
  Bench_util.subsection "batched ingest through the client";
  Bench_util.table ~header:[ "conns"; "Mops/s" ] ingest_rows;
  let query_rows =
    List.map
      (fun conns ->
        let qps, viol = query_run conns in
        violations := !violations + viol;
        Bench_util.record ~exp:"net" ~name:"e16-query" ~unit_:"ops/s"
          ~params:[ ("conns", string_of_int conns) ]
          qps;
        [ string_of_int conns; Bench_util.fmt_float ~digits:0 qps ])
      conn_counts
  in
  Bench_util.subsection "Total queries, one round-trip each";
  Bench_util.table ~header:[ "conns"; "QPS" ] query_rows;
  Bench_util.record ~exp:"net" ~name:"e16-envelope-violations"
    ~unit_:"violations" (float_of_int !violations);
  Printf.printf "\nconservation violations across all runs: %d (gate: 0)\n"
    !violations
