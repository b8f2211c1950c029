type instrument =
  | I_counter of Counter.t
  | I_counter_fn of (unit -> int)
  | I_gauge of Gauge.t
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
  | I_counter _ | I_counter_fn _ -> "counter"
  | I_gauge _ | I_gauge_fn _ -> "gauge"
  | I_timer _ -> "summary"

(* Get-or-create under the registry mutex. [same] decides whether an
   existing instrument satisfies the request; [make] builds a fresh one. *)
let intern t ~name ~help ~labels ~same ~make =
  let labels = List.sort compare labels in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      match
        List.find_opt (fun r -> r.name = name && r.labels = labels) t.regs
      with
      | Some r -> (
          match same r.instrument with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs.Registry: %s%s is already registered as a %s" name
                   (if labels = [] then ""
                    else
                      "{"
                      ^ String.concat ","
                          (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
                      ^ "}")
                   (kind_name r.instrument)))
      | None ->
          let instrument, v = make () in
          t.regs <- { name; help; labels; instrument } :: t.regs;
          v)

let counter t ?(help = "") ?(labels = []) name =
  intern t ~name ~help ~labels
    ~same:(function I_counter c -> Some c | _ -> None)
    ~make:(fun () ->
      let c = Counter.create () in
      (I_counter c, c))

let gauge t ?(help = "") ?(labels = []) name =
  intern t ~name ~help ~labels
    ~same:(function I_gauge g -> Some g | _ -> None)
    ~make:(fun () ->
      let g = Gauge.create () in
      (I_gauge g, g))

let timer_quantiles = [ 0.5; 0.9; 0.99; 1.0 ]

let timer t ?(help = "") ?(labels = []) name =
  intern t ~name ~help ~labels
    ~same:(function I_timer tm -> Some tm | _ -> None)
    ~make:(fun () ->
      let tm = Timer.create ~seed:0x0B5EL () in
      (I_timer tm, tm))

(* Callback registrations replace rather than raise: a restarted component
   re-exporting the same derived value is pointing the scrape at its fresh
   state, which is exactly what the caller wants (Recovery re-runs do this). *)
let register_fn t ~name ~help ~labels instrument =
  let labels = List.sort compare labels in
  Mutex.lock t.m;
  (match
     List.find_opt (fun r -> r.name = name && r.labels = labels) t.regs
   with
  | Some r ->
      if kind_name r.instrument <> kind_name instrument then begin
        Mutex.unlock t.m;
        invalid_arg
          (Printf.sprintf "Obs.Registry: %s is already registered as a %s" name
             (kind_name r.instrument))
      end
      else r.instrument <- instrument
  | None -> t.regs <- { name; help; labels; instrument } :: t.regs);
  Mutex.unlock t.m

let counter_fn t ?(help = "") ?(labels = []) name f =
  register_fn t ~name ~help ~labels (I_counter_fn f)

let gauge_fn t ?(help = "") ?(labels = []) name f =
  register_fn t ~name ~help ~labels (I_gauge_fn f)

let sample_of (r : reg) : Snapshot.sample =
  let value =
    match r.instrument with
    | I_counter c -> Snapshot.Counter (Counter.read c)
    | I_counter_fn f -> Snapshot.Counter (f ())
    | I_gauge g -> Snapshot.Gauge (Gauge.read g)
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
  Mutex.lock t.m;
  let regs = t.regs in
  Mutex.unlock t.m;
  let samples =
    List.map sample_of regs
    |> List.sort (fun (a : Snapshot.sample) b ->
           compare (a.name, a.labels) (b.name, b.labels))
  in
  { Snapshot.at = t.now (); samples }
