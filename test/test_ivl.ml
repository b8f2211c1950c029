(* Tests for the IVL core: the linearizability checker, the IVL checker
   (Definition 2), v_min/v_max (Definition 5), locality (Theorem 1) and
   randomized IVL (Definition 3) — each validated on the paper's own
   examples plus randomized cross-checks. *)

open Test_helpers

module Counter_check = Ivl.Check.Make (Spec.Counter_spec)
module Counter_lin = Ivl.Lincheck.Make (Spec.Counter_spec)
module Counter_bounds = Ivl.Bounded.Make (Spec.Counter_spec)
module Counter_local = Ivl.Locality.Make (Spec.Counter_spec)
module Updown_check = Ivl.Check.Make (Spec.Updown_spec)

(* ---------------------------------------------------------------- *)
(* The introduction's example: a counter at 4 is bumped to 7 by a single
   batched inc(3); a concurrent read may return 4..7 under IVL but only
   4 or 7 under linearizability. *)

let intro_history ~read_returns =
  let u4 = upd ~proc:0 ~id:1 4 in
  let u3 = upd ~proc:0 ~id:2 3 in
  let q = qry ~proc:1 ~ret:read_returns ~id:3 0 in
  hist [ inv u4; rsp u4; inv u3; inv q; rsp ~ret:read_returns q; rsp u3 ]

let test_intro_linearizable_returns () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d linearizable" v)
        true
        (Counter_lin.is_linearizable (intro_history ~read_returns:v)))
    [ 4; 7 ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d not linearizable" v)
        false
        (Counter_lin.is_linearizable (intro_history ~read_returns:v)))
    [ 3; 5; 6; 8 ]

let test_intro_ivl_returns () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d IVL" v)
        true
        (Counter_check.is_ivl (intro_history ~read_returns:v)))
    [ 4; 5; 6; 7 ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d not IVL" v)
        false
        (Counter_check.is_ivl (intro_history ~read_returns:v)))
    [ 3; 8; 0; 100 ]

let test_intro_witnesses_are_reported () =
  let verdict = Counter_check.check (intro_history ~read_returns:6) in
  Alcotest.(check bool) "ivl" true verdict.Counter_check.ivl;
  (match verdict.Counter_check.lower with
  | Some ops -> Alcotest.(check bool) "lower witness non-empty" true (ops <> [])
  | None -> Alcotest.fail "expected lower witness");
  match verdict.Counter_check.upper with
  | Some ops -> Alcotest.(check bool) "upper witness non-empty" true (ops <> [])
  | None -> Alcotest.fail "expected upper witness"

(* ---------------------------------------------------------------- *)
(* Figure 2: p1 and p2 each add 5 concurrently with p3's read; the read may
   return any value in [0, 10]. *)

let figure2 ~read_returns =
  let u1 = upd ~proc:0 ~id:1 5 in
  let u2 = upd ~proc:1 ~id:2 5 in
  let q = qry ~proc:2 ~ret:read_returns ~id:3 0 in
  hist [ inv q; inv u1; inv u2; rsp u1; rsp u2; rsp ~ret:read_returns q ]

let test_figure2_ivl_band () =
  for v = 0 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "read=%d IVL" v)
      true
      (Counter_check.is_ivl (figure2 ~read_returns:v))
  done;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d not IVL" v)
        false
        (Counter_check.is_ivl (figure2 ~read_returns:v)))
    [ -1; 11; 42 ]

let test_figure2_linearizable_band () =
  (* Linearizability only allows sums of subsets consistent with real time:
     0, 5, 10. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d linearizable" v)
        true
        (Counter_lin.is_linearizable (figure2 ~read_returns:v)))
    [ 0; 5; 10 ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d not linearizable" v)
        false
        (Counter_lin.is_linearizable (figure2 ~read_returns:v)))
    [ 3; 6; 7; 9 ]

let test_figure2_vmin_vmax () =
  let bounds = Counter_bounds.query_bounds (figure2 ~read_returns:6) in
  match bounds with
  | [ b ] ->
      Alcotest.(check int) "v_min = 0" 0 b.Counter_bounds.v_min;
      Alcotest.(check int) "v_max = 10" 10 b.Counter_bounds.v_max
  | _ -> Alcotest.fail "expected exactly one query bound"

(* ---------------------------------------------------------------- *)
(* Sequential executions: IVL does not relax anything (Section 3.2). *)

let test_sequential_histories_must_conform () =
  let good = seq [ upd ~id:1 2; qry ~ret:2 ~id:2 0; upd ~id:3 3; qry ~ret:5 ~id:4 0 ] in
  Alcotest.(check bool) "conforming sequential history is IVL" true
    (Counter_check.is_ivl good);
  Alcotest.(check bool) "and linearizable" true (Counter_lin.is_linearizable good);
  let off_by_one = seq [ upd ~id:1 2; qry ~ret:3 ~id:2 0 ] in
  Alcotest.(check bool) "sequential deviation is not IVL" false
    (Counter_check.is_ivl off_by_one);
  Alcotest.(check bool) "sequential conformance helper agrees" true
    (Counter_check.sequential_conforms good)

let test_empty_history_is_ivl () =
  let h = hist [] in
  Alcotest.(check bool) "empty IVL" true (Counter_check.is_ivl h);
  Alcotest.(check bool) "empty linearizable" true (Counter_lin.is_linearizable h)

let test_updates_only_history () =
  let u1 = upd ~proc:0 ~id:1 1 and u2 = upd ~proc:1 ~id:2 2 in
  let h = hist [ inv u1; inv u2; rsp u2; rsp u1 ] in
  Alcotest.(check bool) "updates only IVL" true (Counter_check.is_ivl h)

(* ---------------------------------------------------------------- *)
(* Pending operations: completion freedom (Definition 2 / Lemma 10). *)

let test_pending_update_may_be_seen_or_not () =
  (* update(3) never responds; a concurrent read may return 0..3. *)
  let u = upd ~proc:0 ~id:1 3 in
  let mk v =
    let q = qry ~proc:1 ~ret:v ~id:2 0 in
    hist [ inv u; inv q; rsp ~ret:v q ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d IVL" v)
        true
        (Counter_check.is_ivl (mk v)))
    [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "read=4 not IVL" false (Counter_check.is_ivl (mk 4))

let test_pending_query_is_ignored () =
  let u = upd ~proc:0 ~id:1 3 in
  let q = qry ~proc:1 ~id:2 0 in
  (* The query never responds: it imposes no constraint. *)
  let h = hist [ inv u; rsp u; inv q ] in
  Alcotest.(check bool) "IVL" true (Counter_check.is_ivl h);
  Alcotest.(check bool) "linearizable" true (Counter_lin.is_linearizable h)

let test_read_preceding_update_pins_zero () =
  (* The read completes before the update is invoked: only 0 is IVL. *)
  let q0 = qry ~proc:1 ~ret:0 ~id:1 0 in
  let u = upd ~proc:0 ~id:2 3 in
  let h0 = hist [ inv q0; rsp ~ret:0 q0; inv u; rsp u ] in
  Alcotest.(check bool) "read=0 IVL" true (Counter_check.is_ivl h0);
  let q1 = qry ~proc:1 ~ret:1 ~id:1 0 in
  let h1 = hist [ inv q1; rsp ~ret:1 q1; inv u; rsp u ] in
  Alcotest.(check bool) "read=1 not IVL" false (Counter_check.is_ivl h1)

(* ---------------------------------------------------------------- *)
(* Section 3.4: the increment/decrement object separates IVL from
   regular-like "query sees a subset of concurrent updates" semantics. *)

let updown_history ~read_returns =
  (* inc(+1) then dec(−1) sequentially by p0, both concurrent with p1's
     query. Linearizations give the query 0 (before both or after both) or
     1 (between them): never −1. *)
  let inc = upd ~proc:0 ~id:1 1 in
  let dec = upd ~proc:0 ~id:2 (-1) in
  let q = qry ~proc:1 ~ret:read_returns ~id:3 0 in
  hist [ inv q; inv inc; rsp inc; inv dec; rsp dec; rsp ~ret:read_returns q ]

let test_updown_subset_semantics_violates_ivl () =
  (* Seeing only the decrement (−1) is allowed by subset semantics but is
     below every linearization value, hence not IVL. *)
  Alcotest.(check bool) "read=-1 not IVL" false
    (Updown_check.is_ivl (updown_history ~read_returns:(-1)));
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "read=%d IVL" v)
        true
        (Updown_check.is_ivl (updown_history ~read_returns:v)))
    [ 0; 1 ];
  Alcotest.(check bool) "read=2 not IVL" false
    (Updown_check.is_ivl (updown_history ~read_returns:2))

(* ---------------------------------------------------------------- *)
(* Example 9: PCM is not linearizable, but the same history is IVL.
   Replayed at the specification level with pinned hash functions:
   row 0: a↦0, b↦1; row 1: a↦0, b↦0 (0-indexed form of the paper's
   h1(a)=h2(a)=1, h1(b)=2, h2(b)=1). Elements 1 and 3 fill the remaining
   cells to reach the paper's initial matrix [[1,4],[2,3]]. *)

let example9_family =
  Hashing.Family.of_mapping ~width:2
    [|
      (fun x -> match x with 0 -> 0 | 1 -> 0 | 2 -> 1 | 3 -> 1 | _ -> 0);
      (fun x -> match x with 0 -> 0 | 1 -> 1 | 2 -> 0 | 3 -> 1 | _ -> 0);
    |]

module Cm9 = Spec.Countmin_spec.Fixed (struct
  let family = example9_family
end)

module Cm9_check = Ivl.Check.Make (Cm9)
module Cm9_lin = Ivl.Lincheck.Make (Cm9)

let example9_history =
  (* Prefix by p0 building the initial matrix: one a(=0), one b(=2), three
     3s. Then U = update(a) spanning both queries by p1:
     Q1 = query(a) → 2, Q2 = query(b) → 2. *)
  let prefix_elements = [ 0; 2; 3; 3; 3 ] in
  let prefix_ops = List.mapi (fun i e -> upd ~proc:0 ~id:(i + 1) e) prefix_elements in
  let prefix_events = List.concat_map (fun op -> [ inv op; rsp op ]) prefix_ops in
  let u = upd ~proc:0 ~id:6 0 in
  let q1 = qry ~proc:1 ~ret:2 ~id:7 0 in
  let q2 = qry ~proc:1 ~ret:2 ~id:8 2 in
  hist
    (prefix_events @ [ inv u; inv q1; rsp ~ret:2 q1; inv q2; rsp ~ret:2 q2; rsp u ])

let test_example9_matrix_setup () =
  (* Sanity: the prefix alone produces the paper's initial matrix. *)
  let s = List.fold_left Cm9.apply_update Cm9.init [ 0; 2; 3; 3; 3 ] in
  Alcotest.(check int) "query(a)=1" 1 (Cm9.eval_query s 0);
  Alcotest.(check int) "query(b)=2" 2 (Cm9.eval_query s 2);
  Alcotest.(check int) "query(3)=3" 3 (Cm9.eval_query s 3)

let test_example9_not_linearizable () =
  Alcotest.(check bool) "Example 9 is not linearizable" false
    (Cm9_lin.is_linearizable example9_history)

let test_example9_is_ivl () =
  Alcotest.(check bool) "Example 9 is IVL" true (Cm9_check.is_ivl example9_history)

(* ---------------------------------------------------------------- *)
(* Random cross-checks. *)

(* Random counter histories come from the shared generator; see
   Test_helpers.gen_counter_history. *)
let gen_counter_history = Test_helpers.gen_counter_history

let test_ivl_matches_interval_characterization () =
  let agreements = ref 0 in
  for seed = 1 to 200 do
    let h = gen_counter_history (Int64.of_int seed) in
    let engine = Counter_check.is_ivl h in
    let bounds = Counter_bounds.query_bounds h in
    let brute =
      List.for_all
        (fun (b : Counter_bounds.bound) ->
          match b.op.Hist.Op.ret with
          | Some v -> v >= b.Counter_bounds.v_min && v <= b.Counter_bounds.v_max
          | None -> true)
        bounds
    in
    if engine = brute then incr agreements
    else
      Alcotest.failf "seed %d: engine=%b brute=%b on:\n%s" seed engine brute
        (show_history h)
  done;
  Alcotest.(check int) "all agree" 200 !agreements

let test_linearizable_implies_ivl () =
  for seed = 300 to 500 do
    let h = gen_counter_history (Int64.of_int seed) in
    if Counter_lin.is_linearizable h then
      Alcotest.(check bool) "linearizable ⇒ IVL" true (Counter_check.is_ivl h)
  done

(* Memoization soundness: a non-commutative twin of the counter spec forces
   the engine down the unmemoized path; verdicts must agree. *)
module Counter_nomemo = struct
  include Spec.Counter_spec

  let commutative_updates = false
end

module Counter_check_nomemo = Ivl.Check.Make (Counter_nomemo)
module Counter_lin_nomemo = Ivl.Lincheck.Make (Counter_nomemo)

let test_memoization_consistent () =
  for seed = 600 to 700 do
    let h = gen_counter_history (Int64.of_int seed) in
    Alcotest.(check bool) "ivl verdicts agree"
      (Counter_check_nomemo.is_ivl h)
      (Counter_check.is_ivl h);
    Alcotest.(check bool) "lin verdicts agree"
      (Counter_lin_nomemo.is_linearizable h)
      (Counter_lin.is_linearizable h)
  done

let test_too_many_operations () =
  let ops = List.init 63 (fun i -> upd ~proc:0 ~id:(i + 1) 1) in
  let h = seq ops in
  match Counter_check.is_ivl h with
  | exception Ivl.Search.Too_many_operations n ->
      Alcotest.(check int) "reports count" 63 n
  | _ -> Alcotest.fail "expected Too_many_operations"


(* ---------------------------------------------------------------- *)
(* Engine soundness: compare the DFS search engine against a naive
   reference that enumerates raw permutations of completed operations (plus
   pending-update subsets), filters by precedence, and checks the spec
   directly. Only feasible for tiny histories, which is the point: the two
   must agree exactly where both are tractable. *)

let reference_linearizable h =
  let completed = Hist.History.completed h in
  let pending_updates =
    List.filter Hist.Op.is_update (Hist.History.pending h)
  in
  let respects_order ops =
    let rec check = function
      | [] -> true
      | op :: rest ->
          List.for_all
            (fun later -> not (Hist.History.precedes h later.Hist.Op.id op.Hist.Op.id))
            rest
          && check rest
    in
    check ops
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun ss -> x :: ss) s
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y.Hist.Op.id <> x.Hist.Op.id) l in
            List.map (fun p -> x :: p) (permutations rest))
          l
  in
  let module Tau = Spec.Quantitative.Tau (Spec.Counter_spec) in
  List.exists
    (fun pending_subset ->
      List.exists
        (fun perm -> respects_order perm && Tau.satisfies perm)
        (permutations (completed @ pending_subset)))
    (subsets pending_updates)

let test_engine_vs_reference_linearizability () =
  let checked = ref 0 in
  for seed = 2000 to 2150 do
    let h = gen_counter_history (Int64.of_int seed) in
    if List.length (Hist.History.ops h) <= 6 then begin
      incr checked;
      let engine = Counter_lin.is_linearizable h in
      let reference = reference_linearizable h in
      if engine <> reference then
        Alcotest.failf "seed %d: engine=%b reference=%b on:\n%s" seed engine reference
          (show_history h)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "compared %d histories" !checked)
    true (!checked >= 30)

(* ---------------------------------------------------------------- *)
(* Locality (Theorem 1). *)

let test_locality_hand_case () =
  (* Object 0 carries an IVL-consistent read; object 1 an impossible one. *)
  let u0 = upd ~proc:0 ~obj:0 ~id:1 3 in
  let q0 = qry ~proc:1 ~obj:0 ~ret:2 ~id:2 0 in
  let u1 = upd ~proc:0 ~obj:1 ~id:3 3 in
  let q1 = qry ~proc:1 ~obj:1 ~ret:9 ~id:4 0 in
  let h =
    hist
      [ inv u0; inv q0; rsp ~ret:2 q0; rsp u0; inv u1; inv q1; rsp ~ret:9 q1; rsp u1 ]
  in
  let v = Counter_local.check_per_object h in
  Alcotest.(check bool) "composed not IVL" false v.Counter_local.ivl;
  Alcotest.(check (list (pair int bool)))
    "object verdicts"
    [ (0, true); (1, false) ]
    v.Counter_local.per_object;
  Alcotest.(check bool) "global check agrees" false (Counter_local.check_global h)

let gen_multi_object_history seed =
  gen_history ~seed ~procs:2 ~per_proc:3 ~mk_op:(fun g ~proc ~id ->
      let obj = Rng.Splitmix.next_int g 2 in
      if Rng.Splitmix.next_bool g then
        upd ~proc ~obj ~id (Rng.Splitmix.next_int g 3)
      else qry ~proc ~obj ~ret:(Rng.Splitmix.next_int g 6) ~id 0)

let test_locality_theorem_on_random_histories () =
  for seed = 1 to 300 do
    let h = gen_multi_object_history (Int64.of_int seed) in
    if not (Counter_local.theorem_holds h) then
      Alcotest.failf "locality violated at seed %d:\n%s" seed (show_history h)
  done

(* ---------------------------------------------------------------- *)
(* Randomized IVL (Definition 3). *)

(* A toy randomized object whose update direction depends on the coin:
   coin=true ⇒ +1, coin=false ⇒ −1. Shows Definition 3's common
   linearization is strictly stronger than per-coin IVL. *)
module Signed_spec = struct
  type coin = bool
  type state = { dir : int; total : int }
  type update = int (* magnitude *)
  type query = int
  type value = int

  let name = "coin-signed-counter"
  let init coin = { dir = (if coin then 1 else -1); total = 0 }
  let apply_update s v = { s with total = s.total + (s.dir * v) }
  let eval_query s _ = s.total
  let compare_value = Int.compare
  let commutative_updates = true
  let pp_update = Format.pp_print_int
  let pp_query ppf _ = Format.pp_print_string ppf ""
  let pp_value = Format.pp_print_int
end

module Signed_rand = Ivl.Randomized.Make (Signed_spec)

module Signed_fixed_true =
  Spec.Quantitative.Fix_coin
    (Signed_spec)
    (struct
      let coin = true
    end)

module Signed_fixed_false =
  Spec.Quantitative.Fix_coin
    (Signed_spec)
    (struct
      let coin = false
    end)

module Signed_check_true = Ivl.Check.Make (Signed_fixed_true)
module Signed_check_false = Ivl.Check.Make (Signed_fixed_false)

(* The recorded value on the skeleton is irrelevant; worlds supply returns. *)
let signed_skeleton =
  let u = upd ~proc:0 ~id:1 1 in
  let q = qry ~proc:1 ~id:2 0 in
  hist [ inv u; inv q; rsp ~ret:0 q; rsp u ]

let with_return v =
  let u = upd ~proc:0 ~id:1 1 in
  let q = qry ~proc:1 ~ret:v ~id:2 0 in
  hist [ inv u; inv q; rsp ~ret:v q; rsp u ]

let test_randomized_common_witness_exists () =
  (* Both worlds saw the update: returns (+1, −1). The common linearization
     [u; q] works for both sides. *)
  let worlds =
    [
      { Signed_rand.coin = true; returns = [ (2, 1) ] };
      { Signed_rand.coin = false; returns = [ (2, -1) ] };
    ]
  in
  let v = Signed_rand.check ~worlds signed_skeleton in
  Alcotest.(check bool) "randomized IVL" true v.Signed_rand.ivl

let test_randomized_stricter_than_per_coin () =
  (* Returns (+1 under true, 0 under false): per-coin IVL holds (world true
     linearizes u before q; world false after), but no common upper
     linearization exists: [q;u] gives 0 < 1 for world true, [u;q] gives
     −1 < 0 for world false. *)
  let worlds =
    [
      { Signed_rand.coin = true; returns = [ (2, 1) ] };
      { Signed_rand.coin = false; returns = [ (2, 0) ] };
    ]
  in
  let v = Signed_rand.check ~worlds signed_skeleton in
  Alcotest.(check bool) "no common witness" false v.Signed_rand.ivl;
  (* And indeed each world separately is IVL. *)
  Alcotest.(check bool) "world true alone IVL" true
    (Signed_check_true.is_ivl (with_return 1));
  Alcotest.(check bool) "world false alone IVL" true
    (Signed_check_false.is_ivl (with_return 0))

module Cm_rand = Ivl.Randomized.Make (Spec.Countmin_spec)

let test_randomized_countmin_monotone_worlds () =
  (* For the monotone CM sketch, per-coin witnesses coincide; the randomized
     check passes across two distinct hash families for the canonical
     "query saw the concurrent update in both worlds" outcome. *)
  let family2 =
    Hashing.Family.of_mapping ~width:2 [| (fun x -> (x + 1) mod 2); (fun _ -> 1) |]
  in
  let u = upd ~proc:0 ~id:1 0 in
  let q = qry ~proc:1 ~id:2 0 in
  let sk = hist [ inv u; inv q; rsp ~ret:1 q; rsp u ] in
  let worlds =
    [
      { Cm_rand.coin = example9_family; returns = [ (2, 1) ] };
      { Cm_rand.coin = family2; returns = [ (2, 1) ] };
    ]
  in
  let v = Cm_rand.check ~worlds sk in
  Alcotest.(check bool) "randomized IVL across families" true v.Cm_rand.ivl


(* ---------------------------------------------------------------- *)
(* The monotone fast path: Ivl.Monotone must agree with the exact checker
   on every random monotone history, and compute Figure 2's envelope. *)

module Counter_mono = Ivl.Monotone.Make (Spec.Counter_spec)
module Max_check = Ivl.Check.Make (Spec.Max_spec)
module Max_mono = Ivl.Monotone.Make (Spec.Max_spec)

let test_monotone_agrees_with_exact_counter () =
  for seed = 800 to 1000 do
    let h = gen_counter_history (Int64.of_int seed) in
    let exact = Counter_check.is_ivl h in
    let fast = Counter_mono.check h in
    if exact <> fast then
      Alcotest.failf "seed %d: exact=%b fast=%b on:\n%s" seed exact fast
        (show_history h)
  done

let gen_max_history seed =
  gen_history ~seed ~procs:3 ~per_proc:2 ~mk_op:(fun g ~proc ~id ->
      if Rng.Splitmix.next_bool g then upd ~proc ~id (Rng.Splitmix.next_int g 5)
      else qry ~proc ~ret:(Rng.Splitmix.next_int g 6) ~id 0)

let test_monotone_agrees_with_exact_max () =
  for seed = 1 to 200 do
    let h = gen_max_history (Int64.of_int seed) in
    let exact = Max_check.is_ivl h in
    let fast = Max_mono.check h in
    if exact <> fast then
      Alcotest.failf "max seed %d: exact=%b fast=%b on:\n%s" seed exact fast
        (show_history h)
  done


module Cm9_mono = Ivl.Monotone.Make (Cm9)

let test_monotone_agrees_with_exact_countmin () =
  (* CountMin is monotone too: the fast path must agree with the exact
     checker on random CM histories (elements 0..3, pinned Example 9
     hashes, plausible and implausible returns). *)
  for seed = 1 to 150 do
    let h =
      gen_history ~seed:(Int64.of_int (7000 + seed)) ~procs:3 ~per_proc:2
        ~mk_op:(fun g ~proc ~id ->
          let a = Rng.Splitmix.next_int g 4 in
          if Rng.Splitmix.next_bool g then upd ~proc ~id a
          else qry ~proc ~ret:(Rng.Splitmix.next_int g 4) ~id a)
    in
    let exact = Cm9_check.is_ivl h in
    let fast = Cm9_mono.check h in
    if exact <> fast then
      Alcotest.failf "CM seed %d: exact=%b fast=%b on:\n%s" seed exact fast
        (show_history h)
  done


let test_monotone_agrees_with_exact_under_pending () =
  (* Truncating a history leaves a suffix of operations pending (prefixes of
     well-formed histories are well-formed); the fast path must still agree
     with the exact checker, exercising the completion-freedom rules. *)
  for seed = 4000 to 4150 do
    let full = gen_counter_history (Int64.of_int seed) in
    let events = Hist.History.events full in
    let n = List.length events in
    if n > 2 then begin
      let g = Rng.Splitmix.create (Int64.of_int seed) in
      let keep = 1 + Rng.Splitmix.next_int g (n - 1) in
      let h = Hist.History.of_events (List.filteri (fun i _ -> i < keep) events) in
      let exact = Counter_check.is_ivl h in
      let fast = Counter_mono.check h in
      if exact <> fast then
        Alcotest.failf "pending seed %d (keep %d/%d): exact=%b fast=%b on:\n%s" seed
          keep n exact fast (show_history h)
    end
  done

let test_monotone_figure2_envelope () =
  match Counter_mono.envelopes (figure2 ~read_returns:6) with
  | [ e ] ->
      Alcotest.(check int) "low" 0 e.Counter_mono.low;
      Alcotest.(check int) "high" 10 e.Counter_mono.high;
      Alcotest.(check bool) "no violations" true
        (Counter_mono.violations (figure2 ~read_returns:6) = [])
  | _ -> Alcotest.fail "expected one envelope"

let test_monotone_reports_violations () =
  let es = Counter_mono.violations (figure2 ~read_returns:42) in
  match es with
  | [ e ] -> Alcotest.(check (option int)) "offending return" (Some 42) e.Counter_mono.op.Hist.Op.ret
  | _ -> Alcotest.fail "expected one violation"

let test_monotone_scales_past_checker_limit () =
  (* 200 operations: far beyond the exact checker's 62-op cap. *)
  let n_ops = 200 in
  let events = ref [] in
  let total = ref 0 in
  for i = 1 to n_ops do
    if i mod 10 = 0 then begin
      let q = qry ~proc:1 ~ret:!total ~id:i 0 in
      events := rsp ~ret:!total q :: inv q :: !events
    end
    else begin
      let u = upd ~proc:0 ~id:i 1 in
      total := !total + 1;
      events := rsp u :: inv u :: !events
    end
  done;
  let h = hist (List.rev !events) in
  Alcotest.(check bool) "large sequentialish history checks" true (Counter_mono.check h)


(* ---------------------------------------------------------------- *)
(* Explain, and structural properties of IVL itself. *)

module Counter_explain = Ivl.Explain.Make (Spec.Counter_spec)

let test_explain_reports_out_of_bounds () =
  let h = figure2 ~read_returns:42 in
  let reports = Counter_explain.diagnose h in
  (match reports with
  | [ r ] ->
      Alcotest.(check int) "v_min" 0 r.Counter_explain.v_min;
      Alcotest.(check int) "v_max" 10 r.Counter_explain.v_max;
      Alcotest.(check bool) "flagged" false r.Counter_explain.in_bounds
  | _ -> Alcotest.fail "expected one query report");
  let text = Counter_explain.to_string h in
  Alcotest.(check bool) "mentions OUT OF BOUNDS" true
    (Test_helpers.contains text "OUT OF BOUNDS")

let test_skeletons_are_always_ivl () =
  (* Erasing every return leaves nothing to violate: any history's skeleton
     is IVL. *)
  for seed = 3000 to 3100 do
    let h = gen_counter_history (Int64.of_int seed) in
    Alcotest.(check bool) "skeleton IVL" true
      (Counter_check.is_ivl (Hist.History.skeleton h))
  done

let test_completion_preserves_ivl () =
  (* Completing pending updates preserves IVL: place the newly completed
     updates after every query in the witnesses (they cannot change any
     query's value there). *)
  for seed = 3200 to 3350 do
    let h = gen_counter_history (Int64.of_int seed) in
    if Counter_check.is_ivl h then
      Alcotest.(check bool) "complete h still IVL" true
        (Counter_check.is_ivl (Hist.History.complete h))
  done


(* ---------------------------------------------------------------- *)
(* Heterogeneous locality: Theorem 1 over a counter (object 0) composed
   with a max register (object 1), via the tagged-product spec. *)

module Hetero = Spec.Compose.Make (Spec.Counter_spec) (Spec.Max_spec)
module Hetero_local = Ivl.Locality.Make (Hetero)

type hop = (Hetero.update, Hetero.query, Hetero.value) Hist.Op.t

let hupd ?(proc = 0) ~obj ~id u : hop =
  { Hist.Op.id; proc; obj; kind = Hist.Op.Update u; ret = None }

let hqry ?(proc = 0) ~obj ~id ?ret q : hop =
  { Hist.Op.id; proc; obj; kind = Hist.Op.Query q; ret }

let test_heterogeneous_locality () =
  (* Counter (A, object 0): inc 3 concurrent with a read returning 2 — IVL
     (intermediate). Max register (B, object 1): update 9 concurrent with a
     read returning 12 — NOT IVL (above every linearization value; the IVL
     envelope is [0, 9]). *)
  let ua = hupd ~proc:0 ~obj:0 ~id:1 (`A 3) in
  let qa = hqry ~proc:1 ~obj:0 ~id:2 ~ret:(`A 2) (`A 0) in
  let ub = hupd ~proc:0 ~obj:1 ~id:3 (`B 9) in
  let qb = hqry ~proc:1 ~obj:1 ~id:4 ~ret:(`B 12) (`B 0) in
  let h =
    Hist.History.of_events
      [
        Hist.History.inv ua;
        Hist.History.inv qa;
        Hist.History.rsp qa;
        Hist.History.rsp ua;
        Hist.History.inv ub;
        Hist.History.inv qb;
        Hist.History.rsp qb;
        Hist.History.rsp ub;
      ]
  in
  let v = Hetero_local.check_per_object h in
  Alcotest.(check (list (pair int bool)))
    "per-object verdicts"
    [ (0, true); (1, false) ]
    v.Hetero_local.per_object;
  Alcotest.(check bool) "composed verdict" false v.Hetero_local.ivl;
  Alcotest.(check bool) "global check agrees (Theorem 1)" true
    (Hetero_local.theorem_holds h)

let test_heterogeneous_locality_random () =
  (* Random two-object histories mixing both types: the theorem must hold on
     every instance. *)
  for seed = 1 to 120 do
    let g = Rng.Splitmix.create (Int64.of_int (5000 + seed)) in
    let next_id = ref 0 in
    let mk_op p =
      incr next_id;
      let obj = Rng.Splitmix.next_int g 2 in
      if obj = 0 then
        if Rng.Splitmix.next_bool g then
          hupd ~proc:p ~obj ~id:!next_id (`A (Rng.Splitmix.next_int g 3))
        else hqry ~proc:p ~obj ~id:!next_id ~ret:(`A (Rng.Splitmix.next_int g 5)) (`A 0)
      else if Rng.Splitmix.next_bool g then
        hupd ~proc:p ~obj ~id:!next_id (`B (Rng.Splitmix.next_int g 5))
      else hqry ~proc:p ~obj ~id:!next_id ~ret:(`B (Rng.Splitmix.next_int g 5)) (`B 0)
    in
    let queues = Array.init 2 (fun p -> ref (List.init 3 (fun _ -> mk_op p))) in
    let in_flight = Array.make 2 None in
    let events = ref [] in
    let rec drain () =
      let busy = ref [] in
      for p = 0 to 1 do
        if in_flight.(p) <> None || !(queues.(p)) <> [] then busy := p :: !busy
      done;
      match !busy with
      | [] -> ()
      | ps ->
          let p = List.nth ps (Rng.Splitmix.next_int g (List.length ps)) in
          (match in_flight.(p) with
          | Some op ->
              events := Hist.History.rsp ?ret:op.Hist.Op.ret op :: !events;
              in_flight.(p) <- None
          | None -> (
              match !(queues.(p)) with
              | [] -> ()
              | op :: rest ->
                  queues.(p) := rest;
                  events := Hist.History.inv op :: !events;
                  in_flight.(p) <- Some op));
          drain ()
    in
    drain ();
    let h = Hist.History.of_events (List.rev !events) in
    if not (Hetero_local.theorem_holds h) then
      Alcotest.failf "heterogeneous locality violated at seed %d" seed
  done

let () =
  Alcotest.run "ivl"
    [
      ( "intro example",
        [
          Alcotest.test_case "linearizable returns" `Quick test_intro_linearizable_returns;
          Alcotest.test_case "IVL returns" `Quick test_intro_ivl_returns;
          Alcotest.test_case "witnesses reported" `Quick test_intro_witnesses_are_reported;
        ] );
      ( "figure 2",
        [
          Alcotest.test_case "IVL band" `Quick test_figure2_ivl_band;
          Alcotest.test_case "linearizable band" `Quick test_figure2_linearizable_band;
          Alcotest.test_case "v_min/v_max" `Quick test_figure2_vmin_vmax;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "must conform" `Quick test_sequential_histories_must_conform;
          Alcotest.test_case "empty history" `Quick test_empty_history_is_ivl;
          Alcotest.test_case "updates only" `Quick test_updates_only_history;
        ] );
      ( "pending",
        [
          Alcotest.test_case "pending update optional" `Quick
            test_pending_update_may_be_seen_or_not;
          Alcotest.test_case "pending query ignored" `Quick test_pending_query_is_ignored;
          Alcotest.test_case "read before update" `Quick
            test_read_preceding_update_pins_zero;
        ] );
      ( "updown",
        [
          Alcotest.test_case "subset semantics violates IVL" `Quick
            test_updown_subset_semantics_violates_ivl;
        ] );
      ( "example 9",
        [
          Alcotest.test_case "matrix setup" `Quick test_example9_matrix_setup;
          Alcotest.test_case "not linearizable" `Quick test_example9_not_linearizable;
          Alcotest.test_case "is IVL" `Quick test_example9_is_ivl;
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "interval characterization" `Quick
            test_ivl_matches_interval_characterization;
          Alcotest.test_case "linearizable implies IVL" `Quick
            test_linearizable_implies_ivl;
          Alcotest.test_case "memoization consistent" `Quick test_memoization_consistent;
          Alcotest.test_case "too many operations" `Quick test_too_many_operations;
          Alcotest.test_case "engine vs naive reference" `Quick
            test_engine_vs_reference_linearizability;
        ] );
      ( "explain and structure",
        [
          Alcotest.test_case "explain out-of-bounds" `Quick
            test_explain_reports_out_of_bounds;
          Alcotest.test_case "skeletons always IVL" `Quick test_skeletons_are_always_ivl;
          Alcotest.test_case "completion preserves IVL" `Quick
            test_completion_preserves_ivl;
        ] );
      ( "monotone fast path",
        [
          Alcotest.test_case "agrees with exact (counter)" `Quick
            test_monotone_agrees_with_exact_counter;
          Alcotest.test_case "agrees with exact (max)" `Quick
            test_monotone_agrees_with_exact_max;
          Alcotest.test_case "agrees with exact (countmin)" `Quick
            test_monotone_agrees_with_exact_countmin;
          Alcotest.test_case "agrees with exact under pending" `Quick
            test_monotone_agrees_with_exact_under_pending;
          Alcotest.test_case "figure 2 envelope" `Quick test_monotone_figure2_envelope;
          Alcotest.test_case "reports violations" `Quick test_monotone_reports_violations;
          Alcotest.test_case "scales past checker limit" `Quick
            test_monotone_scales_past_checker_limit;
        ] );
      ( "locality",
        [
          Alcotest.test_case "hand case" `Quick test_locality_hand_case;
          Alcotest.test_case "random histories" `Quick
            test_locality_theorem_on_random_histories;
          Alcotest.test_case "heterogeneous hand case" `Quick
            test_heterogeneous_locality;
          Alcotest.test_case "heterogeneous random" `Quick
            test_heterogeneous_locality_random;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "common witness" `Quick test_randomized_common_witness_exists;
          Alcotest.test_case "stricter than per-coin" `Quick
            test_randomized_stricter_than_per_coin;
          Alcotest.test_case "countmin worlds" `Quick
            test_randomized_countmin_monotone_worlds;
        ] );
    ]
