(* Spans of the traced run, recorded by the benchmark around its calls into
   the stack's public functions. One buffer per recording domain, all slots
   preallocated, so recording is a handful of plain stores and never
   allocates or synchronises; a full buffer drops and counts. *)

type buf = {
  dom : int;
  name : string array;
  start : int array;
  stop : int array;
  parent : int array;  (** global id of the parent span, or -1 *)
  mutable n : int;
  mutable dropped : int;
}

let cap = 1 lsl 18
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ~dom =
  {
    dom;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    n = 0;
    dropped = 0;
  }

(* A span id names its buffer and slot, so a parent in another domain's
   buffer is still found when the file is read back. -1 = not recorded. *)
let id b k = (b.dom * cap) + k

let open_ b ?(parent = -1) name =
  if b.n >= cap then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let k = b.n in
    b.n <- k + 1;
    b.name.(k) <- name;
    b.parent.(k) <- parent;
    b.start.(k) <- now_ns ();
    b.stop.(k) <- b.start.(k);
    id b k
  end

let close b sid = if sid >= 0 then b.stop.(sid - (b.dom * cap)) <- now_ns ()

(* [with_ (Some b) name f] runs [f] inside a span; [None] runs it bare. *)
let with_ bo ?parent name f =
  match bo with
  | None -> f ()
  | Some b ->
      let sid = open_ b ?parent name in
      let r = f () in
      close b sid;
      r

type flat = {
  f_dom : int array;
  f_name : string array;
  f_start : int array;
  f_stop : int array;
  f_parent : int array;  (** index into the flat arrays, or -1 *)
  f_self : int array;
}

let flatten bufs =
  let bufs = List.filter (fun b -> b.n > 0) bufs in
  let offset = Hashtbl.create 8 in
  let total =
    List.fold_left
      (fun acc b ->
        Hashtbl.replace offset b.dom acc;
        acc + b.n)
      0 bufs
  in
  let f_dom = Array.make total 0
  and f_name = Array.make total ""
  and f_start = Array.make total 0
  and f_stop = Array.make total 0
  and f_parent = Array.make total (-1) in
  List.iter
    (fun b ->
      let o = Hashtbl.find offset b.dom in
      for k = 0 to b.n - 1 do
        f_dom.(o + k) <- b.dom;
        f_name.(o + k) <- b.name.(k);
        f_start.(o + k) <- b.start.(k);
        f_stop.(o + k) <- b.stop.(k);
        let p = b.parent.(k) in
        f_parent.(o + k) <-
          (if p < 0 then -1
           else
             match Hashtbl.find_opt offset (p / cap) with
             | Some po -> po + (p mod cap)
             | None -> -1)
      done)
    bufs;
  let f_self =
    Stack_measure.Measure.self_times ~start:f_start ~stop:f_stop
      ~parent:f_parent
  in
  { f_dom; f_name; f_start; f_stop; f_parent; f_self }

(* Durations in microseconds of the spans called [name] that start inside
   [t0_ns, t1_ns). *)
let durations_us fl name ~t0_ns ~t1_ns =
  let acc = ref [] in
  Array.iteri
    (fun k nm ->
      if nm = name && fl.f_start.(k) >= t0_ns && fl.f_start.(k) < t1_ns then
        acc := float_of_int (fl.f_stop.(k) - fl.f_start.(k)) /. 1e3 :: !acc)
    fl.f_name;
  Array.of_list !acc

let write fl path =
  let oc = open_out path in
  output_string oc "# idx\tparent\tdomain\tname\tstart_ns\tend_ns\tself_ns\n";
  Array.iteri
    (fun k nm ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" k fl.f_parent.(k)
        fl.f_dom.(k) nm fl.f_start.(k) fl.f_stop.(k) fl.f_self.(k))
    fl.f_name;
  close_out oc

(* Per-name totals, widest self time first: the traced run's summary. *)
let summary fl =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun k nm ->
      let c, tot, self =
        Option.value (Hashtbl.find_opt tbl nm) ~default:(0, 0, 0)
      in
      Hashtbl.replace tbl nm
        (c + 1, tot + (fl.f_stop.(k) - fl.f_start.(k)), self + fl.f_self.(k)))
    fl.f_name;
  Hashtbl.fold (fun nm (c, tot, self) acc -> (nm, c, tot, self) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
