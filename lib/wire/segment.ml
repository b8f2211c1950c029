(* A segment is a flat concatenation of Codec frames. Reading walks the
   file frame by frame, fully validating each frame's structure (magic,
   version, declared length, payload checksum) before yielding it; the first
   byte that fails any of those checks ends the walk. That single rule
   subsumes every crash shape an append-only log can exhibit: a torn tail
   (the process died mid-append), a checksum-corrupt record (bit rot), or
   garbage after a partially reused block — in all cases the valid prefix is
   exactly the frames before the bad byte, and the caller truncates there. *)

type tail =
  | Clean
  | Torn of {
      valid_prefix : int;
      dropped_bytes : int;
      reason : string;
      version : int option;
    }

let magic = "IVLW"

let torn_header ~avail ~at =
  Printf.sprintf "torn header: %d bytes past offset %d, need %d" avail at
    Codec.header_size

(* Validate the complete header at [off]; [Ok payload_length] or
   [Error (reason, version)], [version] naming another wire version. *)
let check_header buf ~off =
  if Bytes.sub_string buf off 4 <> magic then Error ("bad magic", None)
  else
    let v = Bytes.get_uint8 buf (off + 4) in
    if v <> Codec.version then
      Error (Printf.sprintf "unsupported version %d" v, Some v)
    else Ok (Int32.to_int (Bytes.get_int32_be buf (off + 6)) land 0xFFFFFFFF)

let check_payload buf ~off ~plen =
  let stored = Int32.to_int (Bytes.get_int32_be buf (off + 10)) land 0xFFFFFFFF in
  if Codec.fnv1a buf ~off:(off + Codec.header_size) ~len:plen <> stored then
    Error "payload checksum mismatch"
  else Ok ()

let torn_payload ~total ~avail =
  Printf.sprintf "torn payload: frame wants %d bytes, %d remain" total avail

(* [really_input] that reports how many bytes it got instead of raising. *)
let input_upto ic buf ~off ~len =
  let rec go got =
    if got = len then got
    else
      match input ic buf (off + got) (len - got) with
      | 0 -> got
      | n -> go (got + n)
  in
  go 0

(* One frame in memory at a time: read and check the header, then read
   and checksum the payload, then hand the frame on. *)
let iter ic f =
  let len = in_channel_length ic in
  let hdr = Bytes.create Codec.header_size in
  let rec go off =
    if off = len then Clean
    else
      let torn ?version reason =
        Torn { valid_prefix = off; dropped_bytes = len - off; reason; version }
      in
      let got = input_upto ic hdr ~off:0 ~len:Codec.header_size in
      if got < Codec.header_size then torn (torn_header ~avail:got ~at:off)
      else
        match check_header hdr ~off:0 with
        | Error (reason, version) -> torn ?version reason
        | Ok plen -> (
            let total = Codec.header_size + plen in
            if total > len - off then torn (torn_payload ~total ~avail:(len - off))
            else
              let frame = Bytes.create total in
              Bytes.blit hdr 0 frame 0 Codec.header_size;
              let got = input_upto ic frame ~off:Codec.header_size ~len:plen in
              if got < plen then
                torn (torn_payload ~total ~avail:(Codec.header_size + got))
              else
                match check_payload frame ~off:0 ~plen with
                | Error reason -> torn reason
                | Ok () ->
                    f frame;
                    go (off + total))
  in
  go 0
