(* Table rendering and bechamel plumbing shared by the experiment modules. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

(* Print an aligned table: header row + string rows. *)
let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths =
    List.init cols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let fmt_float ?(digits = 1) v = Printf.sprintf "%.*f" digits v

let fmt_rate ops seconds =
  if seconds <= 0.0 then "inf" else Printf.sprintf "%.2f" (float_of_int ops /. seconds /. 1e6)

(* Run a list of bechamel tests and return (name, ns/op) pairs. One
   Test.make per timed table lives in the caller; this helper owns the
   configuration so every table is measured identically. *)
let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg [ Instance.monotonic_clock ] (Test.make_grouped ~name:"bench" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> (name, nan) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_bechamel_table ~title results =
  subsection title;
  table
    ~header:[ "benchmark"; "ns/op" ]
    (List.map (fun (name, ns) -> [ name; fmt_float ~digits:1 ns ]) results)

(* --- machine-readable results ---------------------------------------- *)

(* Experiments register measurements as they print their tables; after the
   requested sections have run, the harness writes one BENCH_<exp>.json per
   experiment so CI and notebooks diff numbers without scraping stdout.

   Schema (one file per experiment):
     { "exp": "<name>",
       "entries": [ { "name": "<metric>",
                      "params": { "<k>": <json value>, ... },
                      "unit": "<unit>",
                      "reps": <n samples>,
                      "mean": <float>, "p50": <float>, "p99": <float>,
                      "ops_per_sec": <float, when the unit encodes a rate> },
                    ... ] }

   Entries whose unit is a rate ("Mops/s", "ops/s") or a latency ("ns/op")
   also carry a normalized "ops_per_sec" field so `bench compare` and
   notebooks diff throughput without re-learning unit conventions.
   Allocation audits record with unit "B/op" (bytes allocated per
   operation); those entries are the structural side of the regression
   gate — a hot path growing from 0 B/op is a layout bug, not noise. *)

type json_entry = {
  name : string;
  params : (string * string) list; (* values are already-encoded JSON *)
  unit_ : string;
  samples : float list;
}

let json_records : (string, json_entry list ref) Hashtbl.t = Hashtbl.create 7

let json_int (i : int) = string_of_int i
let json_float (f : float) = Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let record_samples ~exp ~name ?(params = []) ?(unit_ = "Mops/s") samples =
  if samples = [] then invalid_arg "Bench_util.record_samples: no samples";
  let entries =
    match Hashtbl.find_opt json_records exp with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add json_records exp r;
        r
  in
  entries := { name; params; unit_; samples } :: !entries

let record ~exp ~name ?(params = []) ?(unit_ = "Mops/s") sample =
  record_samples ~exp ~name ~params ~unit_ [ sample ]

(* Non-numeric files an experiment leaves next to the BENCH_*.json mirrors
   (e.g. E13's metrics snapshot). Listed in the summary manifest so CI
   uploads and notebooks find them from the one well-known name. *)
let artifacts : (string * string) list ref = ref []
let register_artifact ~name ~path = artifacts := (name, path) :: !artifacts

let ops_per_sec ~unit_ mean =
  match unit_ with
  | "Mops/s" -> Some (mean *. 1e6)
  | "ops/s" -> Some mean
  | "ns/op" -> if mean > 0.0 then Some (1e9 /. mean) else None
  | _ -> None

(* Words the current domain has allocated: minor words up to the
   allocation pointer, plus words allocated directly on the major heap.
   [Gc.allocated_bytes] is not used: under OCaml 5.1 it reads the minor
   count through [Gc.counters], which lags until the next minor
   collection, so a path allocating a few words per call read 0. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Bytes the current domain allocates per call of [f] (minor + major,
   from the GC's own counters — exact, not sampled). Used by the
   allocation audits: the flat/one-pass hot paths are designed to
   allocate nothing, and the committed baseline pins that at 0 B/op. *)
let allocated_bytes_per_op ~ops f =
  if ops <= 0 then invalid_arg "Bench_util.allocated_bytes_per_op: ops <= 0";
  (* Warm once so one-time laziness (format strings, closures) doesn't
     bill the first measured batch. *)
  f ();
  let before = allocated_words () in
  for _ = 1 to ops do
    f ()
  done;
  (allocated_words () -. before)
  *. float_of_int (Sys.word_size / 8)
  /. float_of_int ops

(* Best-effort provenance for the summary manifest: the commit the numbers
   were measured at, or null outside a git checkout. *)
let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if String.length line = 40 then Some line else None
  with _ -> None

let iso8601_now () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let write_json_files () =
  let exps =
    Hashtbl.fold (fun exp r acc -> (exp, List.rev !r) :: acc) json_records []
    |> List.sort compare
  in
  List.iter
    (fun (exp, entries) ->
      let file = Printf.sprintf "BENCH_%s.json" exp in
      let oc = open_out file in
      let entry_json { name; params; unit_; samples } =
        let arr = Array.of_list samples in
        let mean =
          List.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length arr)
        in
        Printf.sprintf
          "    { \"name\": %s,\n\
          \      \"params\": { %s },\n\
          \      \"unit\": %s,\n\
          \      \"reps\": %d,\n\
          \      \"mean\": %s, \"p50\": %s, \"p99\": %s%s }"
          (json_string name)
          (String.concat ", "
             (List.map (fun (k, v) -> json_string k ^ ": " ^ v) params))
          (json_string unit_) (Array.length arr) (json_float mean)
          (json_float (Stats.Percentile.median arr))
          (json_float (Stats.Percentile.percentile arr 99.0))
          (match ops_per_sec ~unit_ mean with
          | Some r -> Printf.sprintf ",\n      \"ops_per_sec\": %s" (json_float r)
          | None -> "")
      in
      Printf.fprintf oc "{ \"exp\": %s,\n  \"entries\": [\n%s\n  ]\n}\n"
        (json_string exp)
        (String.concat ",\n" (List.map entry_json entries));
      close_out oc;
      Printf.printf "wrote %s (%d entries)\n" file (List.length entries))
    exps;
  (* Top-level manifest so CI artifacts and notebooks can discover the
     per-experiment files — and tie them to a commit and a wall-clock — from
     one well-known name. *)
  if exps <> [] then begin
    let oc = open_out "BENCH_summary.json" in
    Printf.fprintf oc
      "{ \"generated_at\": %s,\n\
      \  \"git_sha\": %s,\n\
      \  \"files\": [\n\
       %s\n\
      \  ],\n\
      \  \"artifacts\": [%s]\n\
       }\n"
      (json_string (iso8601_now ()))
      (match git_sha () with Some s -> json_string s | None -> "null")
      (String.concat ",\n"
         (List.map
            (fun (exp, entries) ->
              Printf.sprintf
                "    { \"exp\": %s, \"file\": %s, \"entries\": %d }"
                (json_string exp)
                (json_string (Printf.sprintf "BENCH_%s.json" exp))
                (List.length entries))
            exps))
      (match List.rev !artifacts with
      | [] -> ""
      | arts ->
          "\n"
          ^ String.concat ",\n"
              (List.map
                 (fun (name, path) ->
                   Printf.sprintf "    { \"name\": %s, \"path\": %s }"
                     (json_string name) (json_string path))
                 arts)
          ^ "\n  ");
    close_out oc;
    Printf.printf "wrote BENCH_summary.json (%d experiment file(s))\n"
      (List.length exps)
  end
