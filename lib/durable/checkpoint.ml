(* Epoch-stamped full-sketch snapshots. Each checkpoint is a single Codec
   frame (kind checkpoint) holding the epoch, the published total at that
   epoch, and the encoded global sketch; it is written to a temp file,
   flushed, fsynced, and renamed into place, so a crash at any instant
   leaves either the previous set of checkpoints or the previous set plus
   one complete new one — never a half-written file under the real name.
   Recovery scans newest-first and takes the first frame-valid snapshot,
   so a corrupt newest checkpoint degrades to the one before it. *)

type snapshot = { epoch : int; published : int; blob : Bytes.t }

let file_name epoch = Printf.sprintf "ckpt-%016d.ckpt" epoch

let epoch_of name =
  if
    String.length name = 26
    && String.sub name 0 5 = "ckpt-"
    && Filename.check_suffix name ".ckpt"
  then int_of_string_opt (String.sub name 5 16)
  else None

let checkpoints_of dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun n ->
         match epoch_of n with Some e -> Some (e, n) | None -> None)
  |> List.sort (fun a b -> compare b a) (* newest first *)

let encode { epoch; published; blob } =
  Wire.Codec.encode ~kind:Wire.Codec.checkpoint_kind (fun b ->
      Wire.Codec.int_ b epoch;
      Wire.Codec.int_ b published;
      Wire.Codec.bytes_ b blob)

let decode frame =
  Wire.Codec.decode ~kind:Wire.Codec.checkpoint_kind
    (fun r ->
      let epoch = Wire.Codec.read_int r in
      let published = Wire.Codec.read_int r in
      if published < 0 then Wire.Codec.corrupt "negative published %d" published;
      let blob = Wire.Codec.read_bytes r in
      { epoch; published; blob })
    frame

let keep = 2

let write ~dir ~epoch ~published ~blob () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let frame = encode { epoch; published; blob } in
  let final = Filename.concat dir (file_name epoch) in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_bytes oc frame;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp final;
  (* Prune old checkpoints past the retention count; best-effort. *)
  checkpoints_of dir
  |> List.filteri (fun i _ -> i >= keep)
  |> List.iter (fun (_, n) -> try Sys.remove (Filename.concat dir n) with _ -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Newest-first frame-valid snapshots plus the count of corrupt files passed
   over. Half-written [.tmp] files never match the name filter, so an
   interrupted write is invisible here. *)
let candidates ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then ([], 0)
  else
    List.fold_left
      (fun (good, bad) (_, name) ->
        match decode (Bytes.of_string (read_file (Filename.concat dir name))) with
        | Ok s -> (s :: good, bad)
        | Error _ -> (good, bad + 1)
        | exception Sys_error _ -> (good, bad + 1))
      ([], 0) (checkpoints_of dir)
    |> fun (good, bad) -> (List.rev good, bad)

let other_version ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    List.find_map
      (fun (_, name) ->
        match
          Wire.Codec.frame_kind
            (Bytes.of_string (read_file (Filename.concat dir name)))
        with
        | Error (Wire.Codec.Unsupported_version v) -> Some v
        | _ -> None
        | exception Sys_error _ -> None)
      (checkpoints_of dir)

let latest ~dir =
  match candidates ~dir with s :: _, _ -> Some s | [], _ -> None
