(* Bounded per-session dedup window with an optional durable journal.

   The effectively-once contract hinges on one ordering rule: a fresh
   (session, seq) is journaled BEFORE its batch touches the engine.
   Journal-then-apply turns a crash between the two into bounded loss (a
   retried batch is suppressed though its keys never landed), never into
   invention (a batch applied twice) — exactly the direction the IVL
   conservation verdict tolerates: published <= Σ acked, with the slack
   bounded by one in-flight batch per connection per restart.

   Within one server incarnation the in-memory window is authoritative
   and exact: [record] overwrites the journal's provisional count with
   the engine's actual accepted count, so a duplicate ack reports the
   true original outcome. After a restart the journal's claimed count is
   the best available answer (the engine may have accepted fewer keys
   mid-drain), which is why the loss allowance above exists.

   Senders emit seqs in order on one connection, so the window can be a
   high-water mark plus a small ring of recent (seq -> accepted): any seq
   at or below the mark that has already left the ring is necessarily
   long-since applied, and is answered as a duplicate with its batch's
   claimed size. *)

module Codec = Wire.Codec

type outcome = Fresh | Duplicate of int

type session = {
  mutable last_used : int;
  mutable high : int;  (* highest seq ever begun; -1 before the first *)
  window : (int, int) Hashtbl.t;  (* seq -> accepted (or claimed) count *)
  order : int Queue.t;  (* seqs in arrival order, for ring eviction *)
}

type stats = {
  sessions : int;
  duplicates : int;
  journal_records : int;
  journal_bytes : int;
  recovered_records : int;
  compactions : int;
}

type t = {
  m : Mutex.t;
  tbl : (int64, session) Hashtbl.t;
  mutable stamp : int;
  mutable duplicates : int;
  mutable journal : out_channel option;
  mutable journal_path : string option;
  mutable journal_records : int;
  mutable journal_bytes : int;
  mutable recovered_records : int;
  mutable appends_since_compact : int;
  mutable compactions : int;
}

let journal_file dir = Filename.concat dir "sessions.log"

let encode_record ~session ~seq ~count =
  Codec.encode ~kind:Codec.net_session_kind (fun b ->
      Codec.i64 b session;
      Codec.int_ b seq;
      Codec.u32 b count)

let decode_record bytes =
  Codec.decode ~kind:Codec.net_session_kind
    (fun r ->
      let session = Codec.read_i64 r in
      let seq = Codec.read_int r in
      if seq < 0 then Codec.corrupt "negative journal seq %d" seq;
      let count = Codec.read_u32 r in
      (session, seq, count))
    bytes

let window = 128
let compact_every = 4096
let max_sessions = 1024

let fresh_session stamp =
  { last_used = stamp; high = -1; window = Hashtbl.create 64; order = Queue.create () }

(* LRU-evict whole sessions past the cap: a reconnecting fleet of clients
   churns session ids, and an evicted session's retries (if any are still
   alive) degrade to at-least-once — the bounded-memory trade the window
   is named for. *)
let get_session t id =
  t.stamp <- t.stamp + 1;
  match Hashtbl.find_opt t.tbl id with
  | Some s ->
      s.last_used <- t.stamp;
      s
  | None ->
      if Hashtbl.length t.tbl >= max_sessions then begin
        let victim = ref None in
        Hashtbl.iter
          (fun k s ->
            match !victim with
            | Some (_, lu) when lu <= s.last_used -> ()
            | _ -> victim := Some (k, s.last_used))
          t.tbl;
        match !victim with
        | Some (k, _) -> Hashtbl.remove t.tbl k
        | None -> ()
      end;
      let s = fresh_session t.stamp in
      Hashtbl.replace t.tbl id s;
      s

let note t ~session ~seq ~count =
  let s = get_session t session in
  if not (Hashtbl.mem s.window seq) then begin
    Hashtbl.replace s.window seq count;
    Queue.push seq s.order;
    if Queue.length s.order > window then
      Hashtbl.remove s.window (Queue.pop s.order)
  end;
  if seq > s.high then s.high <- seq

let load_journal t ~path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let tail =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Wire.Segment.iter ic (fun frame ->
              match decode_record frame with
              | Ok (session, seq, count) ->
                  note t ~session ~seq ~count;
                  t.recovered_records <- t.recovered_records + 1
              | Error _ -> ()))
    in
    (* The log is the longest valid prefix: truncate whatever a crash left
       behind so the appender continues on a frame boundary. *)
    match tail with
    | Wire.Segment.Clean -> ()
    | Wire.Segment.Torn { valid_prefix; _ } ->
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd valid_prefix;
        Unix.close fd
  end

(* Compaction: the append-only journal grows one frame per fresh batch
   forever, but the state it reconstructs is bounded — per session, the
   window ring plus a high-water mark, and (per sender in-order arrival)
   the mark is always the window's newest seq. So the whole log collapses
   to at most [window] frames per live session: rewrite those, in arrival
   order (replay feeds them back through [note], whose ring semantics
   restore the exact window and mark), to a tmp file and rename over the
   log. Session LRU stamps are not persisted; after a restart the eviction
   order is approximate, which only affects which session a full table
   drops first. *)
let write_snapshot t ~path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Hashtbl.iter
    (fun id (s : session) ->
      Queue.iter
        (fun seq ->
          match Hashtbl.find_opt s.window seq with
          | Some count -> output_bytes oc (encode_record ~session:id ~seq ~count)
          | None -> ())
        s.order)
    t.tbl;
  close_out oc;
  Sys.rename tmp path

(* Call with [t.m] held (or before any concurrent use). Closes the append
   channel around the rename so no flushed frame can land between snapshot
   and switch-over. *)
let compact_locked t =
  match t.journal_path with
  | None -> ()
  | Some path ->
      (match t.journal with
      | Some oc ->
          (try close_out oc with Sys_error _ -> ());
          t.journal <- None
      | None -> ());
      write_snapshot t ~path;
      t.journal <-
        Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path);
      t.appends_since_compact <- 0;
      t.compactions <- t.compactions + 1

let create ?dir () =
  let t =
    {
      m = Mutex.create ();
      tbl = Hashtbl.create 64;
      stamp = 0;
      duplicates = 0;
      journal = None;
      journal_path = None;
      journal_records = 0;
      journal_bytes = 0;
      recovered_records = 0;
      appends_since_compact = 0;
      compactions = 0;
    }
  in
  (match dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let path = journal_file dir in
      load_journal t ~path;
      t.journal_path <- Some path;
      if t.recovered_records > 0 then
        (* Recovery replays the whole log, so this is the natural moment to
           shed its dead prefix: every restart starts from a bounded file. *)
        compact_locked t
      else
        t.journal <-
          Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path));
  t

let append_journal t ~session ~seq ~count =
  match t.journal with
  | None -> ()
  | Some oc ->
      let frame = encode_record ~session ~seq ~count in
      output_bytes oc frame;
      (* flush per record: the journal must be on the kernel side of a
         process kill before the batch is applied (no fsync — the WAL's
         crash model here is process death, matching the soak's kills) *)
      flush oc;
      t.journal_records <- t.journal_records + 1;
      t.journal_bytes <- t.journal_bytes + Bytes.length frame;
      t.appends_since_compact <- t.appends_since_compact + 1

let register t ~session =
  Mutex.lock t.m;
  ignore (get_session t session);
  Mutex.unlock t.m

let begin_batch t ~session ~seq ~count =
  Mutex.lock t.m;
  let s = get_session t session in
  let r =
    match Hashtbl.find_opt s.window seq with
    | Some k -> Duplicate k
    | None when seq <= s.high ->
        (* below the ring but at/under the high-water mark: seqs arrive
           in order per sender, so this was applied long ago *)
        Duplicate count
    | None ->
        append_journal t ~session ~seq ~count;
        note t ~session ~seq ~count;
        (* Compact only after [note]: the snapshot is written from the
           in-memory state, so the record just journaled must be in the
           window before the rewrite or compaction would drop it. *)
        if t.appends_since_compact >= compact_every then compact_locked t;
        Fresh
  in
  (match r with Duplicate _ -> t.duplicates <- t.duplicates + 1 | Fresh -> ());
  Mutex.unlock t.m;
  r

let record t ~session ~seq ~accepted =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.tbl session with
  | Some s when Hashtbl.mem s.window seq -> Hashtbl.replace s.window seq accepted
  | _ -> ());
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let s =
    {
      sessions = Hashtbl.length t.tbl;
      duplicates = t.duplicates;
      journal_records = t.journal_records;
      journal_bytes = t.journal_bytes;
      recovered_records = t.recovered_records;
      compactions = t.compactions;
    }
  in
  Mutex.unlock t.m;
  s

let close t =
  Mutex.lock t.m;
  (match t.journal with
  | Some oc ->
      (try close_out oc with Sys_error _ -> ());
      t.journal <- None
  | None -> ());
  Mutex.unlock t.m
