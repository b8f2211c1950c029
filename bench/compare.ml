(* `bench compare OLD.json NEW.json`: diff two BENCH_<exp>.json files and
   gate on regressions.

   Two classes of regression, treated differently because they have
   different noise profiles:

   - {e timing} (units "Mops/s", "ops/s", "ns/op"): relative change past
     [--threshold] percent. Real but noisy on shared CI runners, so the
     default [--timing warn] only reports; [--timing fail] makes it fatal
     for quiet dedicated hosts.
   - {e structural} (unit "B/op", the allocation audits): a hot path that
     allocated 0 bytes per op and now allocates is a layout/boxing bug
     that no amount of runner noise explains. Any increase beyond float
     dust is always fatal.

   A third class, {e budgets} (unit "pct" — relative overheads like E14's
   instrumented-vs-bare pipeline delta), gates on absolute drift: the
   value is already a percentage, so relative thresholds make no sense.
   Growing by more than 5 points over the recorded baseline is fatal —
   a telemetry layer quietly doubling its overhead is a design break,
   not noise.

   Entries are matched by (name, params); entries present only in OLD are
   reported (a silently vanished benchmark must not read as "no
   regressions") but not fatal, so the gate survives adding/renaming
   benchmarks without ratcheting. *)

(* --- a minimal JSON reader ------------------------------------------- *)

(* The repo vendors no JSON library, and the bench schema is small: a
   recursive-descent reader over the full value grammar keeps the gate
   honest even if the writer evolves. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
               in
               (* The bench writer only escapes control characters; a BMP
                  code point decoded as Latin-1-ish is fine for display. *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
               pos := !pos + 4
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> f
    | None -> fail ("bad number " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- entry extraction -------------------------------------------------- *)

type entry = { key : string; unit_ : string; mean : float }

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let render_param = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> Printf.sprintf "%g" f
  | Str s -> s
  | Arr _ | Obj _ -> "<nested>"

let entries_of_file path =
  let contents =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let b = really_input_string ic len in
    close_in ic;
    b
  in
  let root = parse_json contents in
  let exp =
    match member "exp" root with Some (Str e) -> e | _ -> "<unknown>"
  in
  let entries =
    match member "entries" root with
    | Some (Arr es) ->
        List.filter_map
          (fun e ->
            match (member "name" e, member "unit" e, member "mean" e) with
            | Some (Str name), Some (Str unit_), Some (Num mean) ->
                let params =
                  match member "params" e with
                  | Some (Obj ps) ->
                      List.map (fun (k, v) -> (k, render_param v)) ps
                      |> List.sort compare
                  | _ -> []
                in
                let key =
                  name
                  ^ String.concat ""
                      (List.map (fun (k, v) -> Printf.sprintf "{%s=%s}" k v) params)
                in
                Some { key; unit_; mean }
            | _ -> None)
          es
    | _ -> []
  in
  (exp, entries)

(* --- comparison -------------------------------------------------------- *)

(* Direction of "better" per unit; [None] means the unit is informational
   (counts, ratios) and only reported, never gated. *)
let timing_direction = function
  | "Mops/s" | "ops/s" -> Some `Higher_is_better
  | "ns/op" -> Some `Lower_is_better
  | _ -> None

let structural_unit = function "B/op" -> true | _ -> false

(* Overhead budgets are percentages already; gate on absolute points. *)
let budget_unit = function "pct" -> true | _ -> false

let budget_slack_points = 5.0

(* Correctness counters (the soak harness's IVL verdicts): zero tolerance.
   A single violation is a correctness break, not noise, so any increase
   over the baseline — which is always 0 — is fatal regardless of
   thresholds. *)
let violation_unit = function "violations" -> true | _ -> false

let main args =
  let threshold = ref 20.0 in
  let timing_fatal = ref false in
  let files = ref [] in
  let usage () =
    prerr_endline
      "usage: bench compare OLD.json NEW.json [--threshold PCT] [--timing \
       warn|fail]";
    2
  in
  let rec parse = function
    | [] -> None
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f >= 0.0 ->
            threshold := f;
            parse rest
        | _ -> Some "bad --threshold")
    | "--timing" :: v :: rest -> (
        match v with
        | "warn" ->
            timing_fatal := false;
            parse rest
        | "fail" ->
            timing_fatal := true;
            parse rest
        | _ -> Some "bad --timing (expected warn or fail)")
    | f :: rest ->
        files := f :: !files;
        parse rest
  in
  match (parse args, List.rev !files) with
  | Some err, _ ->
      prerr_endline ("bench compare: " ^ err);
      usage ()
  | None, [ old_file; new_file ] -> (
      try
        let old_exp, old_entries = entries_of_file old_file in
        let new_exp, new_entries = entries_of_file new_file in
        if old_exp <> new_exp then
          Printf.printf "note: comparing different experiments (%s vs %s)\n"
            old_exp new_exp;
        Printf.printf "comparing %s: %s (%d entries) -> %s (%d entries)\n"
          old_exp old_file (List.length old_entries) new_file
          (List.length new_entries);
        let failures = ref [] in
        let warnings = ref [] in
        let fatal fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
        let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
        let rows =
          List.filter_map
            (fun (o : entry) ->
              match List.find_opt (fun n -> n.key = o.key) new_entries with
              | None ->
                  warn "entry %s missing from %s" o.key new_file;
                  None
              | Some nw ->
                  let delta_pct =
                    if o.mean = 0.0 then
                      if nw.mean = 0.0 then 0.0 else infinity
                    else (nw.mean -. o.mean) /. Float.abs o.mean *. 100.0
                  in
                  let verdict =
                    if violation_unit o.unit_ then
                      if nw.mean > o.mean +. 1e-9 then begin
                        fatal
                          "VIOLATIONS %s: %.0f -> %.0f (correctness gate is \
                           zero-tolerance)"
                          o.key o.mean nw.mean;
                        "FAIL"
                      end
                      else "ok"
                    else if structural_unit o.unit_ then
                      (* float dust from the per-op division *)
                      if nw.mean > o.mean +. 0.5 then begin
                        fatal
                          "STRUCTURAL %s: %.1f -> %.1f %s (hot path now \
                           allocates)"
                          o.key o.mean nw.mean o.unit_;
                        "FAIL"
                      end
                      else "ok"
                    else if budget_unit o.unit_ then
                      if nw.mean > o.mean +. budget_slack_points then begin
                        fatal
                          "BUDGET %s: %.1f -> %.1f pct (more than %.0f points \
                           over the recorded overhead)"
                          o.key o.mean nw.mean budget_slack_points;
                        "FAIL"
                      end
                      else "ok"
                    else
                      match timing_direction o.unit_ with
                      | None -> "info"
                      | Some dir ->
                          let regressed =
                            match dir with
                            | `Higher_is_better -> delta_pct < -.(!threshold)
                            | `Lower_is_better -> delta_pct > !threshold
                          in
                          if regressed then begin
                            if !timing_fatal then begin
                              fatal "TIMING %s: %.3g -> %.3g %s (%+.1f%%)"
                                o.key o.mean nw.mean o.unit_ delta_pct;
                              "FAIL"
                            end
                            else begin
                              warn "timing %s: %.3g -> %.3g %s (%+.1f%%)" o.key
                                o.mean nw.mean o.unit_ delta_pct;
                              "warn"
                            end
                          end
                          else "ok"
                  in
                  Some
                    [
                      o.key;
                      o.unit_;
                      Printf.sprintf "%.4g" o.mean;
                      Printf.sprintf "%.4g" nw.mean;
                      Printf.sprintf "%+.1f%%" delta_pct;
                      verdict;
                    ])
            old_entries
        in
        Bench_util.table
          ~header:[ "entry"; "unit"; "old"; "new"; "delta"; "gate" ]
          rows;
        List.iter (Printf.printf "WARN: %s\n") (List.rev !warnings);
        List.iter (Printf.printf "FAIL: %s\n") (List.rev !failures);
        if !failures <> [] then begin
          Printf.printf "bench compare: FAIL (%d fatal regression(s))\n"
            (List.length !failures);
          1
        end
        else begin
          Printf.printf "bench compare: PASS (%d warning(s), threshold %.0f%%, timing %s)\n"
            (List.length !warnings) !threshold
            (if !timing_fatal then "fail" else "warn");
          0
        end
      with
      | Sys_error msg ->
          Printf.eprintf "bench compare: %s\n" msg;
          2
      | Parse_error msg ->
          Printf.eprintf "bench compare: JSON parse error: %s\n" msg;
          2)
  | None, _ -> usage ()
