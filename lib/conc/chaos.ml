exception Killed of { domain : int; point : int }

type plan = {
  seed : int64;
  yield_prob : float;
  stall_prob : float;
  stall_spins : int;
  kills : (int * int) list;
}

let plan ?(yield_prob = 0.2) ?(stall_prob = 0.02) ?(stall_spins = 2000)
    ?(kills = []) ~seed () =
  let check_prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Chaos.plan: %s must be in [0,1]" name)
  in
  check_prob "yield_prob" yield_prob;
  check_prob "stall_prob" stall_prob;
  if stall_spins < 0 then invalid_arg "Chaos.plan: stall_spins must be non-negative";
  List.iter
    (fun (_, point) ->
      if point < 1 then invalid_arg "Chaos.plan: kill points are 1-based")
    kills;
  { seed; yield_prob; stall_prob; stall_spins; kills }

let random_kills ~seed ~domains ~victims ~max_point =
  if victims < 0 || victims > domains then
    invalid_arg "Chaos.random_kills: victims must be in [0, domains]";
  if max_point < 1 then invalid_arg "Chaos.random_kills: max_point must be >= 1";
  let g = Rng.Splitmix.create seed in
  let pool = ref (List.init domains Fun.id) in
  List.init victims (fun _ ->
      let n = List.length !pool in
      let i = Rng.Splitmix.next_int g n in
      let d = List.nth !pool i in
      pool := List.filter (fun x -> x <> d) !pool;
      (d, 1 + Rng.Splitmix.next_int g max_point))

type domain_state = {
  rng : Rng.Splitmix.t;
  mutable points : int;
  kill_at : int option;  (* first kill point for this domain, if a victim *)
  mutable dead : bool;
}

type t = {
  cfg : plan;
  per_domain : domain_state array;
}

let instantiate cfg ~domains =
  if domains <= 0 then invalid_arg "Chaos.instantiate: domains must be positive";
  let kill_at d =
    List.filter_map (fun (v, p) -> if v = d then Some p else None) cfg.kills
    |> function [] -> None | ps -> Some (List.fold_left min max_int ps)
  in
  {
    cfg;
    per_domain =
      Array.init domains (fun d ->
          {
            rng = Rng.Splitmix.create (Int64.add cfg.seed (Int64.of_int (d * 7919)));
            points = 0;
            kill_at = kill_at d;
            dead = false;
          });
  }

let point t ~domain =
  let st = t.per_domain.(domain) in
  if st.dead then raise (Killed { domain; point = st.points });
  st.points <- st.points + 1;
  (match st.kill_at with
  | Some k when st.points >= k ->
      st.dead <- true;
      raise (Killed { domain; point = st.points })
  | _ -> ());
  let u = Rng.Splitmix.next_float st.rng in
  if u < t.cfg.stall_prob then begin
    for _ = 1 to t.cfg.stall_spins do
      Domain.cpu_relax ()
    done
  end
  else if u < t.cfg.stall_prob +. t.cfg.yield_prob then begin
    for _ = 1 to 1 + Rng.Splitmix.next_int st.rng 8 do
      Domain.cpu_relax ()
    done
  end

(* The first call on a victim still raises (that's the injected crash); once
   the domain is marked dead, later incarnations pass through untouched. *)
let point_once t ~domain =
  let st = t.per_domain.(domain) in
  if not st.dead then point t ~domain

let points_passed t ~domain = t.per_domain.(domain).points

let killed t =
  let acc = ref [] in
  Array.iteri (fun d st -> if st.dead then acc := d :: !acc) t.per_domain;
  List.rev !acc
