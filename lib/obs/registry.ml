type instrument =
  | I_counter_fn of (unit -> int)
  | I_gauge_fn of (unit -> float)
  | I_timer of Timer.t

type reg = {
  name : string;
  help : string;
  labels : (string * string) list; (* sorted *)
  mutable instrument : instrument;
}

type t = {
  m : Mutex.t;
  mutable regs : reg list; (* registration order; sorted at snapshot *)
  now : unit -> float;
}

let create ?(now = Unix.gettimeofday) () = { m = Mutex.create (); regs = []; now }

let kind_name = function
  | I_counter_fn _ -> "counter"
  | I_gauge_fn _ -> "gauge"
  | I_timer _ -> "summary"

(* Register [make ()] under (name, labels), holding the registry mutex, and
   return the instrument the identity now names. A timer is get-or-create:
   an existing one is kept. A callback replaces the existing one: a
   restarted component re-exporting the same derived value is pointing the
   scrape at its fresh state, which is exactly what the caller wants
   (Recovery re-runs do this). Another kind under the same identity
   raises. *)
let register t ~name ~help ~labels ~kind make =
  let labels = List.sort compare labels in
  Mutex.protect t.m @@ fun () ->
  match List.find_opt (fun r -> r.name = name && r.labels = labels) t.regs with
  | Some r when kind_name r.instrument <> kind ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %s%s is already registered as a %s" name
           (if labels = [] then ""
            else
              "{"
              ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
              ^ "}")
           (kind_name r.instrument))
  | Some ({ instrument = I_timer _; _ } as r) -> r.instrument
  | Some r ->
      r.instrument <- make ();
      r.instrument
  | None ->
      let instrument = make () in
      t.regs <- { name; help; labels; instrument } :: t.regs;
      instrument

let timer_quantiles = [ 0.5; 0.9; 0.99; 1.0 ]

let timer t ?(help = "") ?(labels = []) name =
  match
    register t ~name ~help ~labels ~kind:"summary" (fun () ->
        I_timer (Timer.create ~seed:0x0B5EL ()))
  with
  | I_timer tm -> tm
  | I_counter_fn _ | I_gauge_fn _ -> assert false (* [register] checked *)

let counter_fn t ?(help = "") ?(labels = []) name f =
  ignore (register t ~name ~help ~labels ~kind:"counter" (fun () -> I_counter_fn f))

let gauge_fn t ?(help = "") ?(labels = []) name f =
  ignore (register t ~name ~help ~labels ~kind:"gauge" (fun () -> I_gauge_fn f))

let sample_of (r : reg) : Snapshot.sample =
  let value =
    match r.instrument with
    | I_counter_fn f -> Snapshot.Counter (f ())
    | I_gauge_fn f -> Snapshot.Gauge (f ())
    | I_timer tm ->
        Snapshot.Summary
          {
            Snapshot.q = Timer.quantiles tm timer_quantiles;
            s_count = Timer.count tm;
            s_sum = Timer.sum tm;
          }
  in
  { Snapshot.name = r.name; help = r.help; labels = r.labels; value }

let snapshot t =
  let regs = Mutex.protect t.m (fun () -> t.regs) in
  let samples =
    List.map sample_of regs
    |> List.sort (fun (a : Snapshot.sample) b ->
           compare (a.name, a.labels) (b.name, b.labels))
  in
  { Snapshot.at = t.now (); samples }
