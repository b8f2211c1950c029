type t = {
  ingest : int -> bool;
  try_ingest : int -> bool;
  query : int -> unit;
  flush : unit -> unit;
}

let make ?try_ingest ?(query = fun _ -> ()) ?(flush = fun () -> ()) ~ingest
    () =
  {
    ingest;
    try_ingest = (match try_ingest with Some f -> f | None -> ingest);
    query;
    flush;
  }
