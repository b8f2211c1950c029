type summary_view = {
  q : (float * float) list;
  s_count : int;
  s_sum : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Summary of summary_view

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

type t = { at : float; samples : sample list }

let find t ?(labels = []) name =
  let labels = List.sort compare labels in
  List.find_opt (fun s -> s.name = name && s.labels = labels) t.samples
  |> Option.map (fun s -> s.value)

let counter_value t ?labels name =
  match find t ?labels name with Some (Counter v) -> v | _ -> 0

let gauge_value t ?labels name =
  match find t ?labels name with Some (Gauge v) -> v | _ -> 0.0
