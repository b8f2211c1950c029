(* One accept domain, 50ms select poll (a blocked accept would never
   notice [closing]), connections served inline to completion within
   [request_timeout]. Scrape requests are a few hundred bytes and
   responses are one string, so inline serving keeps the module to a
   single domain with nothing to reap. *)

type response = { status : int; content_type : string; body : string }

let response ?(status = 200) ?(content_type = "text/plain; version=0.0.4")
    body =
  { status; content_type; body }

type handler = path:string -> query:(string * string) list -> response option

type t = {
  lsock : Unix.file_descr;
  port_ : int;
  handler : handler;
  mutable closing : bool;
  mutable accept_d : unit Domain.t option;
  requests_n : int Atomic.t;
}

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

(* The accept domain serves one connection at a time, so the whole
   exchange shares one deadline from accept: a peer trickling header bytes
   (or reading the response slowly) holds the telemetry plane for at most
   [request_timeout], not for one timeout per read. *)
let request_timeout = 2.0

(* Arm [opt] (SO_RCVTIMEO or SO_SNDTIMEO) with the time left before
   [deadline]; false once it has passed. At least 1 ms: a zero timeout
   means "block forever". *)
let arm fd opt ~deadline =
  let left = deadline -. Unix.gettimeofday () in
  left > 0.0
  &&
  try
    Unix.setsockopt_float fd opt (Float.max left 0.001);
    true
  with _ -> false

let read_request fd ~deadline =
  (* Read until the blank line ending the header block; scrape requests
     have no body. Bounded so a hostile peer cannot grow the buffer. *)
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec loop () =
    if Buffer.length buf > 8192 then None
    else
      let seen = Buffer.contents buf in
      if
        String.length seen >= 4
        && String.sub seen (String.length seen - 4) 4 = "\r\n\r\n"
      then Some seen
      else if not (arm fd Unix.SO_RCVTIMEO ~deadline) then None
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf > 0 then Some (Buffer.contents buf) else None
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
        | exception _ -> None
  in
  loop ()

let parse_query q =
  String.split_on_char '&' q
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( String.sub kv 0 i,
                   String.sub kv (i + 1) (String.length kv - i - 1) )
           | None -> Some (kv, ""))

let parse_request raw =
  (* "GET /path?query HTTP/1.1\r\n..." *)
  match String.index_opt raw '\r' with
  | None -> None
  | Some eol -> (
      let line = String.sub raw 0 eol in
      match String.split_on_char ' ' line with
      | [ meth; target; _version ] when meth = "GET" || meth = "HEAD" -> (
          match String.index_opt target '?' with
          | Some i ->
              Some
                ( String.sub target 0 i,
                  parse_query
                    (String.sub target (i + 1) (String.length target - i - 1))
                )
          | None -> Some (target, []))
      | _ -> None)

let write_all fd ~deadline s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  try
    while !off < len && arm fd Unix.SO_SNDTIMEO ~deadline do
      off := !off + Unix.write fd b !off (len - !off)
    done
  with _ -> ()

let respond fd ~deadline (r : response) =
  write_all fd ~deadline
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\n\
        Content-Type: %s\r\n\
        Content-Length: %d\r\n\
        Connection: close\r\n\
        \r\n\
        %s"
       r.status (status_text r.status) r.content_type
       (String.length r.body) r.body)

let serve_conn t fd =
  let deadline = Unix.gettimeofday () +. request_timeout in
  Atomic.incr t.requests_n;
  (match read_request fd ~deadline with
  | None -> ()
  | Some raw -> (
      let respond = respond fd ~deadline in
      match parse_request raw with
      | None -> respond (response ~status:400 "bad request\n")
      | Some (path, query) -> (
          match
            try t.handler ~path ~query
            with _ -> Some (response ~status:503 "handler error\n")
          with
          | Some r -> respond r
          | None -> respond (response ~status:404 "not found\n"))));
  try Unix.close fd with _ -> ()

let accept_loop t =
  while not t.closing do
    match Unix.select [ t.lsock ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.lsock with
        | fd, _ -> serve_conn t fd
        | exception _ -> if not t.closing then Unix.sleepf 0.005)
    | exception _ -> if not t.closing then Unix.sleepf 0.005
  done

let create ?(host = "127.0.0.1") ?(port = 0) ~handler () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close lsock with _ -> ());
     raise e);
  Unix.listen lsock 16;
  let port_ =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      lsock;
      port_;
      handler;
      closing = false;
      accept_d = None;
      requests_n = Atomic.make 0;
    }
  in
  t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let port t = t.port_
let requests t = Atomic.get t.requests_n

let stop t =
  if not t.closing then begin
    t.closing <- true;
    (match t.accept_d with Some d -> Domain.join d | None -> ());
    t.accept_d <- None;
    try Unix.close t.lsock with _ -> ()
  end

(* ---------------- the standard telemetry routes ---------------- *)

let json_kv b (k, v) =
  Buffer.add_char b '"';
  Buffer.add_string b k;
  Buffer.add_string b "\":\"";
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    v;
  Buffer.add_char b '"'

let healthz ?slo ?health () =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  let status =
    match slo with
    | Some s ->
        let v = Slo.eval s in
        Buffer.add_string b
          (Printf.sprintf
             "\"slo\":{\"state\":\"%s\",\"worst_dim\":\"%s\",\"worst_ratio\":%.4f,\"breaches\":%d},"
             (Slo.state_to_string v.Slo.state)
             v.Slo.worst_dim v.Slo.worst_ratio v.Slo.breaches);
        if v.Slo.state = Slo.Breach then 503 else 200
    | None -> 200
  in
  Buffer.add_string b "\"status\":";
  Buffer.add_string b (if status = 200 then "\"ok\"" else "\"breach\"");
  (match health with
  | Some f ->
      List.iter
        (fun kv ->
          Buffer.add_char b ',';
          json_kv b kv)
        (f ())
  | None -> ());
  Buffer.add_char b '}';
  (status, Buffer.contents b)

let telemetry_handler ~registry ?tracer ?slo ?health () ~path ~query =
  match path with
  | "/metrics" ->
      Some (response (Expose.to_prometheus (Registry.snapshot registry)))
  | "/healthz" ->
      let status, body = healthz ?slo ?health () in
      Some (response ~status ~content_type:"application/json" (body ^ "\n"))
  | "/trace" ->
      let n =
        match List.assoc_opt "n" query with
        | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 64)
        | None -> 64
      in
      let spans =
        match tracer with Some tr -> Tracer.recent tr n | None -> []
      in
      let body =
        "[" ^ String.concat "," (List.map Span.record_to_json spans) ^ "]\n"
      in
      Some (response ~content_type:"application/json" body)
  | _ -> None
