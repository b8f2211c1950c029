(* Prometheus text-0.0.4 escaping: label values escape exactly backslash,
   double-quote and newline — every other byte travels raw (a "\t" or "	"
   sequence would be read back literally). HELP text escapes only
   backslash and newline (quotes are legal there). *)
let buf_add_prom_escaped ?(quote = true) b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' when quote -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

let prom_float v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let prom_labels b labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b k;
          Buffer.add_string b "=\"";
          buf_add_prom_escaped b v;
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

(* quantile= joins the sample's own labels *)
let prom_labels_plus b labels extra_k extra_v =
  Buffer.add_char b '{';
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b "=\"";
      buf_add_prom_escaped b v;
      Buffer.add_string b "\",")
    labels;
  Buffer.add_string b extra_k;
  Buffer.add_string b "=\"";
  Buffer.add_string b extra_v;
  Buffer.add_string b "\"}"

let to_prometheus (snap : Snapshot.t) =
  let b = Buffer.create 4096 in
  let seen_header = Hashtbl.create 16 in
  let header name help kind =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then begin
        Buffer.add_string b "# HELP ";
        Buffer.add_string b name;
        Buffer.add_char b ' ';
        buf_add_prom_escaped ~quote:false b help;
        Buffer.add_char b '\n'
      end;
      Buffer.add_string b "# TYPE ";
      Buffer.add_string b name;
      Buffer.add_char b ' ';
      Buffer.add_string b kind;
      Buffer.add_char b '\n'
    end
  in
  List.iter
    (fun (s : Snapshot.sample) ->
      match s.value with
      | Snapshot.Counter v ->
          header s.name s.help "counter";
          Buffer.add_string b s.name;
          prom_labels b s.labels;
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b '\n'
      | Snapshot.Gauge v ->
          header s.name s.help "gauge";
          Buffer.add_string b s.name;
          prom_labels b s.labels;
          Buffer.add_char b ' ';
          Buffer.add_string b (prom_float v);
          Buffer.add_char b '\n'
      | Snapshot.Summary sv ->
          header s.name s.help "summary";
          List.iter
            (fun (phi, v) ->
              Buffer.add_string b s.name;
              prom_labels_plus b s.labels "quantile" (prom_float phi);
              Buffer.add_char b ' ';
              Buffer.add_string b (prom_float v);
              Buffer.add_char b '\n')
            sv.Snapshot.q;
          Buffer.add_string b s.name;
          Buffer.add_string b "_sum";
          prom_labels b s.labels;
          Buffer.add_char b ' ';
          Buffer.add_string b (prom_float sv.Snapshot.s_sum);
          Buffer.add_char b '\n';
          Buffer.add_string b s.name;
          Buffer.add_string b "_count";
          prom_labels b s.labels;
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int sv.Snapshot.s_count);
          Buffer.add_char b '\n')
    snap.Snapshot.samples;
  Buffer.contents b
