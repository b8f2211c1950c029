(* Write-ahead delta log: every delta the merger publishes is appended to a
   segment file as one Codec frame (kind wal-record) enveloping the
   already-framed sketch blob, stamped with the epoch the merge received and
   the stream weight it carries. Segments rotate at a size threshold so a
   long-lived pipeline never owns one unbounded file, and so checkpoint-aware
   readers could drop whole prefixes wholesale.

   Durability is a dial, not a boolean: [Always] fsyncs every append (lose
   nothing, pay a disk round-trip per merge), [Every_n] bounds the loss
   window to n merges, [Never] leaves flushing to the OS (crash loses the
   page-cache tail — which recovery's torn-tail truncation absorbs; the
   envelope guarantee never depends on the policy, only the loss window
   does). *)

type fsync_policy = Always | Every_n of int | Never

let policy_to_string = function
  | Always -> "always"
  | Every_n n -> Printf.sprintf "every-%d" n
  | Never -> "never"

let segment_name i = Printf.sprintf "wal-%08d.seg" i

let segment_index name =
  if
    String.length name = 16
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 8)
  else None

let segments_of dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun n ->
         match segment_index n with Some i -> Some (i, n) | None -> None)
  |> List.sort compare

(* Friendly pre-flight for CLI entry points: turn the Sys_error/Unix_error a
   bad path would raise deep inside create/read into a plain diagnostic the
   caller can print and exit with. [must_exist] is the reader's contract
   (recovering from nothing is a user error); a writer only needs a creatable
   path — an existing parent it can write into. *)
let validate_dir ?(must_exist = true) ~dir () =
  if Sys.file_exists dir then
    if not (Sys.is_directory dir) then
      Error (Printf.sprintf "%s exists but is not a directory" dir)
    else
      match Sys.readdir dir with
      | _ -> Ok ()
      | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" dir msg)
  else if must_exist then Error (Printf.sprintf "no such directory: %s" dir)
  else
    let parent = Filename.dirname dir in
    if not (Sys.file_exists parent) then
      Error
        (Printf.sprintf "cannot create %s: parent directory %s does not exist" dir
           parent)
    else if not (Sys.is_directory parent) then
      Error (Printf.sprintf "cannot create %s: %s is not a directory" dir parent)
    else
      match Unix.access parent [ Unix.W_OK; Unix.X_OK ] with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot create %s: %s is not writable (%s)" dir parent
               (Unix.error_message e))

let remove_segments ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    let segs = segments_of dir in
    List.iter (fun (_, name) -> Sys.remove (Filename.concat dir name)) segs;
    List.length segs

(* ------------------------------ writer ------------------------------ *)

(* A segment rolls over once the next frame would take it past this. *)
let segment_bytes = 4 * 1024 * 1024

type writer = {
  dir : string;
  fsync : fsync_policy;
  mutable oc : out_channel;
  mutable seg_index : int;
  mutable seg_size : int;
  mutable unsynced : int; (* appends since the last fsync *)
  mutable last_epoch : int;
  mutable appended : int;
  mutable rotations : int;
  mutable closed : bool;
  mutable frame : Bytes.t; (* each record is written here, then output *)
  fsync_timer : Obs.Timer.t option;
}

let fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Every durability point goes through here so the fsync latency summary
   sees all of them: policy-driven appends, rotations, explicit syncs. *)
let writer_fsync w =
  match w.fsync_timer with
  | None -> fsync_oc w.oc
  | Some tm -> Obs.Timer.time tm (fun () -> fsync_oc w.oc)

let open_segment w i =
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_append; Open_binary ]
      0o644
      (Filename.concat w.dir (segment_name i))
  in
  w.oc <- oc;
  w.seg_index <- i;
  w.seg_size <- 0

let create ?(fsync = Every_n 64) ?metrics ~dir () =
  (match fsync with
  | Every_n n when n <= 0 -> invalid_arg "Wal.create: Every_n must be positive"
  | _ -> ());
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Never append into an existing segment: its tail may be torn from a
     previous crash, and a fresh segment keeps the longest-valid-prefix scan
     rule sound without a repair pass. *)
  let next =
    match List.rev (segments_of dir) with (i, _) :: _ -> i + 1 | [] -> 0
  in
  let w =
    {
      dir;
      fsync;
      oc = stdout (* replaced below *);
      seg_index = next;
      seg_size = 0;
      unsynced = 0;
      last_epoch = min_int;
      appended = 0;
      rotations = 0;
      closed = false;
      frame = Bytes.create 4096;
      fsync_timer =
        Option.map
          (fun reg ->
            Obs.Registry.timer reg
              ~help:"Seconds per WAL fsync (appends, rotations, syncs)"
              "wal_fsync_seconds")
          metrics;
    }
  in
  (match metrics with
  | Some reg ->
      Obs.Registry.counter_fn reg ~help:"Records appended to the WAL"
        "wal_appends_total" (fun () -> w.appended);
      Obs.Registry.counter_fn reg ~help:"WAL segment rotations"
        "wal_rotations_total" (fun () -> w.rotations);
      Obs.Registry.gauge_fn reg ~help:"Index of the segment being written"
        "wal_segment_index" (fun () -> float_of_int w.seg_index);
      Obs.Registry.gauge_fn reg
        ~help:"Appends not yet covered by an fsync (the live loss window)"
        "wal_unsynced" (fun () -> float_of_int w.unsynced)
  | None -> ());
  open_segment w next;
  w

(* Payload: i64 epoch, i64 weight, u32 length, the blob. *)
let record_size blob = Wire.Codec.header_size + 8 + 8 + 4 + Bytes.length blob

let write_record frame ~epoch ~weight ~blob =
  let p = Wire.Codec.header_size and len = Bytes.length blob in
  if len > 0xFFFFFFFF then invalid_arg "Wire.Codec.u32: out of range";
  Bytes.set_int64_be frame p (Int64.of_int epoch);
  Bytes.set_int64_be frame (p + 8) (Int64.of_int weight);
  Bytes.set_int32_be frame (p + 16) (Int32.of_int len);
  Bytes.blit blob 0 frame (p + 20) len;
  Wire.Codec.seal_into frame ~off:0 ~kind:Wire.Codec.wal_record_kind
    ~plen:(20 + len)

let rotate w =
  writer_fsync w;
  close_out w.oc;
  w.rotations <- w.rotations + 1;
  open_segment w (w.seg_index + 1)

let append w ~epoch ~weight ~blob =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  if epoch <= w.last_epoch then
    invalid_arg
      (Printf.sprintf "Wal.append: epoch %d not greater than last %d" epoch
         w.last_epoch);
  if weight < 0 then invalid_arg "Wal.append: negative weight";
  w.last_epoch <- epoch;
  let size = record_size blob in
  if Bytes.length w.frame < size then
    w.frame <- Bytes.create (max size (2 * Bytes.length w.frame));
  write_record w.frame ~epoch ~weight ~blob;
  if w.seg_size > 0 && w.seg_size + size > segment_bytes then rotate w;
  output w.oc w.frame 0 size;
  w.seg_size <- w.seg_size + size;
  w.appended <- w.appended + 1;
  w.unsynced <- w.unsynced + 1;
  match w.fsync with
  | Always ->
      writer_fsync w;
      w.unsynced <- 0
  | Every_n n ->
      if w.unsynced >= n then begin
        writer_fsync w;
        w.unsynced <- 0
      end
  | Never -> ()

(* The engine's [on_merge] WAL hook. The append is the last server-side
   stage of a sampled delta's waterfall, so it is timed under the merged
   delta's context. *)
let merge_hook ?tracer w ~ctx ~epoch ~weight ~blob =
  match tracer with
  | Some tr when not (Obs.Span.is_zero ctx) ->
      let t0 = Obs.Tracer.now_ns () in
      append w ~epoch ~weight ~blob;
      ignore
        (Obs.Tracer.record tr ~ctx ~stage:"wal" ~start_ns:t0
           ~end_ns:(Obs.Tracer.now_ns ()))
  | _ -> append w ~epoch ~weight ~blob

let close w =
  if not w.closed then begin
    w.closed <- true;
    writer_fsync w;
    close_out w.oc
  end

let appended w = w.appended
let rotations w = w.rotations
let segment_index w = w.seg_index

(* ------------------------------ reader ------------------------------ *)

type record = { epoch : int; weight : int; blob : Bytes.t }

type read_report = {
  segments : int;
  bytes_truncated : int;
  truncated_reason : string option;
  other_version : int option;
}

let decode_record frame =
  Wire.Codec.decode ~kind:Wire.Codec.wal_record_kind
    (fun r ->
      let epoch = Wire.Codec.read_int r in
      let weight = Wire.Codec.read_int r in
      if weight < 0 then Wire.Codec.corrupt "negative weight %d" weight;
      let blob = Wire.Codec.read_bytes r in
      { epoch; weight; blob })
    frame

(* The log is the longest valid prefix — across segment boundaries too: the
   first bad frame (torn, checksum-corrupt, wrong kind, or epoch going
   backwards) truncates everything after it, later segments included, because
   replay order past a hole cannot be trusted. Segments are streamed frame by
   frame, so a replay holds one record at a time, whatever the log's size. *)
let iter ~dir f =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    {
      segments = 0;
      bytes_truncated = 0;
      truncated_reason = None;
      other_version = None;
    }
  else begin
    let segs = segments_of dir in
    let last_epoch = ref min_int in
    let truncated = ref None in
    let other_version = ref None in
    let bytes_truncated = ref 0 in
    List.iter
      (fun (_, name) ->
        let path = Filename.concat dir name in
        match !truncated with
        | Some _ ->
            (* Already cut: everything later is dropped wholesale. *)
            bytes_truncated := !bytes_truncated + (Unix.stat path).Unix.st_size
        | None -> (
            let off = ref 0 in
            let record frame =
              (match !truncated with
              | Some _ -> ()
              | None -> (
                  match decode_record frame with
                  | Ok r when r.epoch > !last_epoch ->
                      last_epoch := r.epoch;
                      f r
                  | Ok r ->
                      truncated :=
                        Some
                          (Printf.sprintf
                             "%s: epoch %d not increasing at offset %d" name
                             r.epoch !off)
                  | Error e ->
                      truncated :=
                        Some
                          (Printf.sprintf "%s: bad record at offset %d: %s"
                             name !off
                             (Wire.Codec.error_to_string e))));
              (match !truncated with
              | Some _ -> bytes_truncated := !bytes_truncated + Bytes.length frame
              | None -> ());
              off := !off + Bytes.length frame
            in
            let ic = open_in_bin path in
            match
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> Wire.Segment.iter ic record)
            with
            | Wire.Segment.Clean -> ()
            | Wire.Segment.Torn { dropped_bytes; reason; version; _ } ->
                bytes_truncated := !bytes_truncated + dropped_bytes;
                if !truncated = None then begin
                  truncated := Some (Printf.sprintf "%s: %s" name reason);
                  other_version := version
                end))
      segs;
    {
      segments = List.length segs;
      bytes_truncated = !bytes_truncated;
      truncated_reason = !truncated;
      other_version = !other_version;
    }
  end
