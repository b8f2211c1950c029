(* A fault-injecting TCP forwarder: listens on its own port, dials the
   real endpoint per accepted connection, and pumps bytes both ways
   through a seeded fault model — added latency, bit corruption,
   mid-stream resets, refused connections, full partitions. Neither
   endpoint cooperates or even knows; every failure the soak exercises
   arrives exactly the way production failures do, on the wire.

   One pair of pump domains per connection, one direction each. A fault
   that kills the pair uses shutdown (both fds, both directions) so the
   peer pump unblocks from its read; the actual close waits until both
   pumps have exited (a 2-countdown), because closing an fd another
   domain is still reading risks the kernel reusing the number. *)

type faults = {
  latency : float * float;  (* (min, max) seconds added per chunk *)
  corrupt_prob : float;  (* per-chunk probability of one flipped bit *)
  reset_prob : float;  (* per-chunk probability of a mid-stream reset *)
  drop_conn_prob : float;  (* per-accept probability of refusing *)
}

let no_faults =
  { latency = (0., 0.); corrupt_prob = 0.; reset_prob = 0.; drop_conn_prob = 0. }

type stats = {
  conns : int;
  active : int;
  refused : int;
  resets : int;
  corruptions : int;
  bytes : int;
}

type pair = {
  cfd : Unix.file_descr;
  sfd : Unix.file_descr;
  dead : bool Atomic.t;
  pumps_left : int Atomic.t;
}

type t = {
  lsock : Unix.file_descr;
  port : int;
  upstream : unit -> string * int;
  seed : int64;
  m : Mutex.t;
  mutable faults : faults;
  mutable partitioned : bool;
  mutable pairs : pair list;
  mutable domains : unit Domain.t list;
  mutable closing : bool;
  mutable accept_d : unit Domain.t option;
  c_conns : int Atomic.t;
  c_refused : int Atomic.t;
  c_resets : int Atomic.t;
  c_corruptions : int Atomic.t;
  c_bytes : int Atomic.t;
}

let shutdown_quiet fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let kill_pair pair =
  if Atomic.compare_and_set pair.dead false true then begin
    shutdown_quiet pair.cfd;
    shutdown_quiet pair.sfd
  end

(* last pump out closes the fds *)
let leave_pair pair =
  kill_pair pair;
  if Atomic.fetch_and_add pair.pumps_left (-1) = 1 then begin
    close_quiet pair.cfd;
    close_quiet pair.sfd
  end

let write_all fd buf n =
  let rec go off =
    if off < n then begin
      let w = Unix.write fd buf off (n - off) in
      if w <= 0 then raise Exit;
      go (off + w)
    end
  in
  go 0

let pump t pair src dst rng =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read src buf 0 4096 with
    | 0 | (exception _) -> ()
    | n -> (
        let f =
          Mutex.lock t.m;
          let f = t.faults in
          Mutex.unlock t.m;
          f
        in
        let lo, hi = f.latency in
        if hi > 0. then
          Unix.sleepf (lo +. (Rng.Splitmix.next_float rng *. (hi -. lo)));
        if f.corrupt_prob > 0. && Rng.Dist.bernoulli rng f.corrupt_prob
        then begin
          let i = Rng.Dist.uniform_int rng n in
          let bit = Rng.Dist.uniform_int rng 8 in
          Bytes.set buf i
            (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl bit)));
          Atomic.incr t.c_corruptions
        end;
        if f.reset_prob > 0. && Rng.Dist.bernoulli rng f.reset_prob then begin
          (* forward a partial chunk first so the cut lands mid-frame *)
          Atomic.incr t.c_resets;
          (try write_all dst buf (n / 2) with _ -> ());
          kill_pair pair
        end
        else
          match write_all dst buf n with
          | exception _ -> ()
          | () ->
              ignore (Atomic.fetch_and_add t.c_bytes n);
              go ())
  in
  go ();
  leave_pair pair

let dial_upstream t =
  let host, port = t.upstream () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     close_quiet fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let accept_loop t =
  let conn_id = ref 0 in
  while not t.closing do
    (* poll: a blocked accept would never notice [closing] *)
    match
      match Unix.select [ t.lsock ] [] [] 0.05 with
      | [], _, _ -> None
      | _ ->
          let fd, _ = Unix.accept t.lsock in
          Some fd
    with
    | exception _ -> if not t.closing then Unix.sleepf 0.005
    | None -> ()
    | Some cfd -> (
        incr conn_id;
        let refuse =
          Mutex.lock t.m;
          let f = t.faults in
          let p = t.partitioned in
          Mutex.unlock t.m;
          p
          || f.drop_conn_prob > 0.
             && Rng.Dist.bernoulli
                  (Rng.Splitmix.create
                     (Int64.add t.seed (Int64.of_int (1000000 + !conn_id))))
                  f.drop_conn_prob
        in
        if refuse then begin
          Atomic.incr t.c_refused;
          close_quiet cfd
        end
        else
          match dial_upstream t with
          | exception _ ->
              Atomic.incr t.c_refused;
              close_quiet cfd
          | sfd ->
              Atomic.incr t.c_conns;
              (try Unix.setsockopt cfd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              let pair =
                { cfd; sfd; dead = Atomic.make false; pumps_left = Atomic.make 2 }
              in
              let mk dir src dst =
                let rng =
                  Rng.Splitmix.create
                    (Int64.add t.seed (Int64.of_int ((!conn_id * 2) + dir)))
                in
                Domain.spawn (fun () -> pump t pair src dst rng)
              in
              Mutex.lock t.m;
              if t.closing || t.partitioned then begin
                Mutex.unlock t.m;
                Atomic.incr t.c_refused;
                close_quiet cfd;
                close_quiet sfd
              end
              else begin
                t.pairs <- pair :: List.filter (fun p -> not (Atomic.get p.dead)) t.pairs;
                let d1 = mk 0 cfd sfd and d2 = mk 1 sfd cfd in
                t.domains <- d1 :: d2 :: t.domains;
                Mutex.unlock t.m
              end)
  done

let create ?(host = "127.0.0.1") ~seed ~upstream () =
  Conn.ignore_sigpipe ();
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string host, 0));
  Unix.listen lsock 64;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let t =
    {
      lsock;
      port;
      upstream;
      seed;
      m = Mutex.create ();
      faults = no_faults;
      partitioned = false;
      pairs = [];
      domains = [];
      closing = false;
      accept_d = None;
      c_conns = Atomic.make 0;
      c_refused = Atomic.make 0;
      c_resets = Atomic.make 0;
      c_corruptions = Atomic.make 0;
      c_bytes = Atomic.make 0;
    }
  in
  t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let port t = t.port

let set_faults t f =
  Mutex.lock t.m;
  t.faults <- f;
  Mutex.unlock t.m

let set_partition t on =
  Mutex.lock t.m;
  t.partitioned <- on;
  let pairs = if on then t.pairs else [] in
  Mutex.unlock t.m;
  (* a partition severs live flows too, not just new dials *)
  List.iter kill_pair pairs

let stats t =
  Mutex.lock t.m;
  let active = List.length (List.filter (fun p -> not (Atomic.get p.dead)) t.pairs) in
  Mutex.unlock t.m;
  {
    conns = Atomic.get t.c_conns;
    active;
    refused = Atomic.get t.c_refused;
    resets = Atomic.get t.c_resets;
    corruptions = Atomic.get t.c_corruptions;
    bytes = Atomic.get t.c_bytes;
  }

let stop t =
  if not t.closing then begin
    t.closing <- true;
    close_quiet t.lsock;
    Mutex.lock t.m;
    let pairs = t.pairs in
    let domains = t.domains in
    t.pairs <- [];
    t.domains <- [];
    Mutex.unlock t.m;
    List.iter kill_pair pairs;
    (match t.accept_d with Some d -> Domain.join d | None -> ());
    t.accept_d <- None;
    List.iter Domain.join domains
  end;
  stats t
