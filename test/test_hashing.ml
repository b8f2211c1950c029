(* Tests for field arithmetic, universal hashing, families, tabulation. *)

let p = Hashing.Prime_field.p

let test_field_constants () =
  Alcotest.(check int) "p is 2^61-1" ((1 lsl 61) - 1) p

let test_reduce () =
  Alcotest.(check int) "reduce 0" 0 (Hashing.Prime_field.reduce 0);
  Alcotest.(check int) "reduce p" 0 (Hashing.Prime_field.reduce p);
  Alcotest.(check int) "reduce p+1" 1 (Hashing.Prime_field.reduce (p + 1));
  Alcotest.(check int) "reduce p-1" (p - 1) (Hashing.Prime_field.reduce (p - 1))

let test_add () =
  Alcotest.(check int) "add wraps" 0 (Hashing.Prime_field.add (p - 1) 1);
  Alcotest.(check int) "add small" 7 (Hashing.Prime_field.add 3 4)

(* Reference multiplication through Zarith-free 128-bit-ish splitting using
   Int64 pairs is overkill; instead check against slow modular exponentiation
   identities and small cases. *)
let test_mul_small () =
  Alcotest.(check int) "3*4" 12 (Hashing.Prime_field.mul 3 4);
  Alcotest.(check int) "0*x" 0 (Hashing.Prime_field.mul 0 123456);
  Alcotest.(check int) "1*x" 123456 (Hashing.Prime_field.mul 1 123456)

let test_mul_wraps () =
  (* (p-1)² mod p = 1 since p-1 ≡ -1. *)
  Alcotest.(check int) "(-1)²=1" 1 (Hashing.Prime_field.mul (p - 1) (p - 1));
  (* (p-1)·2 mod p = p-2. *)
  Alcotest.(check int) "(-1)·2=-2" (p - 2) (Hashing.Prime_field.mul (p - 1) 2)

let test_mul_fermat () =
  (* Fermat's little theorem: a^(p-1) ≡ 1 (mod p) for a ≠ 0. Exponentiate by
     squaring with our [mul]; any error in [mul] is extremely unlikely to
     still satisfy the identity for several bases. *)
  let pow_mod a e =
    let rec go acc a e =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then Hashing.Prime_field.mul acc a else acc in
        go acc (Hashing.Prime_field.mul a a) (e lsr 1)
    in
    go 1 a e
  in
  List.iter
    (fun a -> Alcotest.(check int) (Printf.sprintf "fermat a=%d" a) 1 (pow_mod a (p - 1)))
    [ 2; 3; 12345; 987654321; p - 2 ]

let test_mul_distributes () =
  let g = Rng.Splitmix.create 5L in
  for _ = 1 to 200 do
    let a = Hashing.Prime_field.random_element g in
    let b = Hashing.Prime_field.random_element g in
    let c = Hashing.Prime_field.random_element g in
    let left = Hashing.Prime_field.mul a (Hashing.Prime_field.add b c) in
    let right =
      Hashing.Prime_field.add (Hashing.Prime_field.mul a b) (Hashing.Prime_field.mul a c)
    in
    Alcotest.(check int) "a(b+c) = ab+ac" left right
  done

(* The limb multiply the library used before [mul_add] became one fused
   kernel, kept here as the oracle the kernel must agree with value for
   value: every logged hash, checkpoint and replica check depends on it. *)
let oracle_mul_add a x b =
  let reduce = Hashing.Prime_field.reduce in
  let add a b = reduce (a + b) in
  let shift_mod x k = reduce ((x lsr (61 - k)) + ((x lsl k) land p)) in
  let a_hi = a lsr 31 and a_lo = a land 0x7FFFFFFF in
  let x_hi = x lsr 31 and x_lo = x land 0x7FFFFFFF in
  let hh = reduce (a_hi * x_hi) in
  let cross = add (reduce (a_hi * x_lo)) (reduce (a_lo * x_hi)) in
  let ll = reduce (a_lo * x_lo) in
  add (add (add (shift_mod hh 1) (shift_mod cross 31)) ll) b

let test_mul_add_edges () =
  let edges =
    [ 0; 1; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 60;
      p - 2; p - 1 ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun x ->
          List.iter
            (fun b ->
              let got = Hashing.Prime_field.mul_add a x b in
              if got <> oracle_mul_add a x b then
                Alcotest.failf "mul_add %d %d %d = %d, oracle %d" a x b got
                  (oracle_mul_add a x b))
            edges)
        edges)
    edges;
  Alcotest.(check int) "mul is mul_add _ _ 0" (p - 2)
    (Hashing.Prime_field.mul (p - 1) 2)

let test_mul_add_random () =
  let g = Rng.Splitmix.create 61L in
  let bad = ref 0 in
  for _ = 1 to 1_000_000 do
    let a = Hashing.Prime_field.random_element g
    and x = Hashing.Prime_field.random_element g
    and b = Hashing.Prime_field.random_element g in
    if Hashing.Prime_field.mul_add a x b <> oracle_mul_add a x b then incr bad
  done;
  Alcotest.(check int) "random triples that disagree with the oracle" 0 !bad

let test_random_element_range () =
  let g = Rng.Splitmix.create 9L in
  for _ = 1 to 1000 do
    let v = Hashing.Prime_field.random_element g in
    Alcotest.(check bool) "in field" true (v >= 0 && v < p)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "nonzero" true (Hashing.Prime_field.random_nonzero g <> 0)
  done

let test_universal_range () =
  let g = Rng.Splitmix.create 17L in
  let h = Hashing.Universal.create g ~width:37 in
  for x = 0 to 1000 do
    let v = Hashing.Universal.apply h x in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 37)
  done

let test_universal_deterministic () =
  let h = Hashing.Universal.of_coefficients ~a:12345 ~b:678 ~width:100 in
  let v1 = Hashing.Universal.apply h 4242 in
  let v2 = Hashing.Universal.apply h 4242 in
  Alcotest.(check int) "same input, same output" v1 v2

let test_universal_formula () =
  (* Small coefficients: check ((a·x + b) mod p) mod w directly. *)
  let h = Hashing.Universal.of_coefficients ~a:3 ~b:5 ~width:7 in
  Alcotest.(check int) "h(10) = (35 mod p) mod 7" ((3 * 10 + 5) mod 7)
    (Hashing.Universal.apply h 10)

let test_universal_rejects_bad_width () =
  Alcotest.check_raises "width 0"
    (Invalid_argument "Universal.of_coefficients: width must be positive") (fun () ->
      ignore (Hashing.Universal.of_coefficients ~a:1 ~b:0 ~width:0))

let test_universal_collision_rate () =
  (* Pairwise independence is a statement over the random draw of the hash
     function: for any fixed pair x ≠ y, Pr_h[h(x) = h(y)] ≈ 1/w. Draw 2000
     independent functions with w = 64 and count collisions on a fixed pair;
     expect ≈ 31, accept a broad band. *)
  let g = Rng.Splitmix.create 23L in
  let collisions = ref 0 in
  for _ = 1 to 2000 do
    let h = Hashing.Universal.create g ~width:64 in
    if Hashing.Universal.apply h 1_000_003 = Hashing.Universal.apply h 9_000_041 then
      incr collisions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "collisions=%d in [10,70]" !collisions)
    true
    (!collisions >= 10 && !collisions <= 70)

let test_family_basics () =
  let f = Hashing.Family.seeded ~seed:7L ~rows:4 ~width:32 in
  Alcotest.(check int) "rows" 4 (Hashing.Family.rows f);
  Alcotest.(check int) "width" 32 (Hashing.Family.width f);
  for row = 0 to 3 do
    for x = 0 to 100 do
      let v = Hashing.Family.hash f ~row x in
      Alcotest.(check bool) "in range" true (v >= 0 && v < 32)
    done
  done

let test_family_rows_independent () =
  let f = Hashing.Family.seeded ~seed:7L ~rows:4 ~width:1024 in
  (* Different rows should disagree on most inputs. *)
  let agree = ref 0 in
  for x = 0 to 499 do
    if Hashing.Family.hash f ~row:0 x = Hashing.Family.hash f ~row:1 x then incr agree
  done;
  Alcotest.(check bool) "rows decorrelated" true (!agree < 20)

let test_family_of_mapping () =
  let f =
    Hashing.Family.of_mapping ~width:2 [| (fun x -> x mod 2); (fun _ -> 0) |]
  in
  Alcotest.(check int) "row0 odd" 1 (Hashing.Family.hash f ~row:0 3);
  Alcotest.(check int) "row0 even" 0 (Hashing.Family.hash f ~row:0 4);
  Alcotest.(check int) "row1 const" 0 (Hashing.Family.hash f ~row:1 999)

let test_family_seeded_reproducible () =
  let f1 = Hashing.Family.seeded ~seed:100L ~rows:3 ~width:50 in
  let f2 = Hashing.Family.seeded ~seed:100L ~rows:3 ~width:50 in
  for row = 0 to 2 do
    for x = 0 to 200 do
      Alcotest.(check int) "same coins, same hash"
        (Hashing.Family.hash f1 ~row x)
        (Hashing.Family.hash f2 ~row x)
    done
  done

let test_family_golden_columns () =
  let f = Test_helpers.golden_family () and keys = Test_helpers.golden_keys in
  let col row i = Hashing.Family.hash f ~row keys.(i) in
  Alcotest.(check (list int)) "row 0, first 8 keys"
    [ 1402; 698; 2041; 1336; 1760; 1055; 351; 1694 ]
    (List.init 8 (col 0));
  Alcotest.(check int) "row 3, last key" 673 (col 3 511);
  let b = Buffer.create 8192 in
  for row = 0 to 3 do
    Array.iteri
      (fun i _ ->
        Buffer.add_string b (string_of_int (col row i));
        Buffer.add_char b ',')
      keys
  done;
  Alcotest.(check string) "digest of all 4 x 512 columns"
    "970f721711e57307a42a06c771da7533"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Kirsch–Mitzenmacher double hashing --- *)

let test_km_probe_hash_consistency () =
  (* The one-pass contract: probe_col over a packed probe must agree with
     hash, for pow2 widths (mask fast path), non-pow2 widths (division
     path), and the width-1 degenerate case. *)
  List.iter
    (fun (rows, width) ->
      let f = Hashing.Family.seeded_km ~seed:11L ~rows ~width in
      Alcotest.(check bool) "flagged as double-hashed" true
        (Hashing.Family.double_hashed f);
      for x = 0 to 500 do
        let p = Hashing.Family.probe f x in
        for row = 0 to rows - 1 do
          let via_probe = Hashing.Family.probe_col f p ~row in
          let direct = Hashing.Family.hash f ~row x in
          Alcotest.(check int)
            (Printf.sprintf "rows=%d width=%d x=%d row=%d" rows width x row)
            direct via_probe;
          Alcotest.(check bool) "in range" true (direct >= 0 && direct < width)
        done
      done)
    [ (4, 1024); (3, 1000); (2, 1); (5, 7); (1, 2) ]

let test_km_seeded_equivalence () =
  (* Same seed, same derived rows — the property the bench ablation leans
     on to compare families apples-to-apples. *)
  let f1 = Hashing.Family.seeded_km ~seed:42L ~rows:4 ~width:512 in
  let f2 = Hashing.Family.seeded_km ~seed:42L ~rows:4 ~width:512 in
  for row = 0 to 3 do
    for x = 0 to 300 do
      Alcotest.(check int) "same coins, same hash"
        (Hashing.Family.hash f1 ~row x)
        (Hashing.Family.hash f2 ~row x)
    done
  done;
  Alcotest.(check bool) "compatible with its twin" true
    (Hashing.Family.compatible f1 f2);
  let f3 = Hashing.Family.seeded_km ~seed:43L ~rows:4 ~width:512 in
  let differs = ref false in
  for x = 0 to 300 do
    if Hashing.Family.hash f1 ~row:0 x <> Hashing.Family.hash f3 ~row:0 x then
      differs := true
  done;
  Alcotest.(check bool) "different coins differ" true !differs;
  let rows_family = Hashing.Family.seeded ~seed:42L ~rows:4 ~width:512 in
  Alcotest.(check bool) "never compatible with an independent-rows family"
    false
    (Hashing.Family.compatible f1 rows_family);
  Alcotest.(check bool) "KM coefficients are not serializable" true
    (Hashing.Family.coefficients f1 = None)

let test_km_adjacent_rows_disagree () =
  (* step(x) >= 1, so consecutive derived rows never collide on the same
     column (the stride is nonzero mod w). *)
  let f = Hashing.Family.seeded_km ~seed:5L ~rows:4 ~width:64 in
  for x = 0 to 999 do
    for row = 0 to 2 do
      if Hashing.Family.hash f ~row x = Hashing.Family.hash f ~row:(row + 1) x
      then
        Alcotest.failf "x=%d rows %d and %d collide on column %d" x row
          (row + 1)
          (Hashing.Family.hash f ~row x)
    done
  done

let test_km_validation () =
  Alcotest.check_raises "rows must be positive"
    (Invalid_argument "Family.seeded_km: rows must be positive") (fun () ->
      ignore (Hashing.Family.seeded_km ~seed:1L ~rows:0 ~width:8));
  Alcotest.check_raises "width must be positive"
    (Invalid_argument "Family.seeded_km: width must be positive") (fun () ->
      ignore (Hashing.Family.seeded_km ~seed:1L ~rows:2 ~width:0));
  Alcotest.check_raises "width must fit the packed probe"
    (Invalid_argument "Family.seeded_km: width must fit the packed probe (<= 2^30)")
    (fun () ->
      ignore (Hashing.Family.seeded_km ~seed:1L ~rows:2 ~width:(1 lsl 31)))

let test_rows_probe_hash_consistency () =
  (* The same one-pass contract holds for independent-rows families (where
     the probe is the identity), including explicit mappings that may
     return negative values. *)
  let seeded = Hashing.Family.seeded ~seed:9L ~rows:3 ~width:48 in
  let mapped =
    Hashing.Family.of_mapping ~width:5 [| (fun x -> -x); (fun x -> x * 3) |]
  in
  List.iter
    (fun f ->
      for x = 0 to 200 do
        let p = Hashing.Family.probe f x in
        for row = 0 to Hashing.Family.rows f - 1 do
          Alcotest.(check int) "probe_col agrees with hash"
            (Hashing.Family.hash f ~row x)
            (Hashing.Family.probe_col f p ~row)
        done
      done)
    [ seeded; mapped ]

let test_tabulation_range_and_determinism () =
  let g = Rng.Splitmix.create 55L in
  let t = Hashing.Tabulation.create g in
  for x = 0 to 500 do
    let v = Hashing.Tabulation.hash t x in
    Alcotest.(check bool) "non-negative" true (v >= 0);
    Alcotest.(check int) "deterministic" v (Hashing.Tabulation.hash t x)
  done

let test_tabulation_mixes () =
  (* Nearby keys should differ in roughly half their output bits. *)
  let g = Rng.Splitmix.create 56L in
  let t = Hashing.Tabulation.create g in
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  let total = ref 0 in
  for x = 0 to 99 do
    total :=
      !total + popcount (Hashing.Tabulation.hash t x lxor Hashing.Tabulation.hash t (x + 1))
  done;
  let avg = float_of_int !total /. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche avg=%.1f bits" avg)
    true
    (avg > 20.0 && avg < 44.0)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mul commutes" ~count:500
         QCheck.(pair (int_bound 1000000000) (int_bound 1000000000))
         (fun (a, b) -> Hashing.Prime_field.mul a b = Hashing.Prime_field.mul b a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mul associates" ~count:200
         QCheck.(triple (int_bound 1000000000) (int_bound 1000000000) (int_bound 1000000000))
         (fun (a, b, c) ->
           Hashing.Prime_field.mul a (Hashing.Prime_field.mul b c)
           = Hashing.Prime_field.mul (Hashing.Prime_field.mul a b) c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"universal hash stays in range" ~count:500
         QCheck.(triple int64 (int_range 1 1000) (int_bound 1_000_000))
         (fun (seed, width, x) ->
           let g = Rng.Splitmix.create seed in
           let h = Hashing.Universal.create g ~width in
           let v = Hashing.Universal.apply h x in
           v >= 0 && v < width));
  ]

let () =
  Alcotest.run "hashing"
    [
      ( "prime_field",
        [
          Alcotest.test_case "constants" `Quick test_field_constants;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "mul small" `Quick test_mul_small;
          Alcotest.test_case "mul wraps" `Quick test_mul_wraps;
          Alcotest.test_case "mul fermat" `Quick test_mul_fermat;
          Alcotest.test_case "mul distributes" `Quick test_mul_distributes;
          Alcotest.test_case "random element range" `Quick test_random_element_range;
          Alcotest.test_case "mul_add = oracle on edge triples" `Quick
            test_mul_add_edges;
          Alcotest.test_case "mul_add = oracle on 10^6 random triples" `Quick
            test_mul_add_random;
        ] );
      ( "universal",
        [
          Alcotest.test_case "range" `Quick test_universal_range;
          Alcotest.test_case "deterministic" `Quick test_universal_deterministic;
          Alcotest.test_case "formula" `Quick test_universal_formula;
          Alcotest.test_case "bad width" `Quick test_universal_rejects_bad_width;
          Alcotest.test_case "collision rate" `Quick test_universal_collision_rate;
        ] );
      ( "family",
        [
          Alcotest.test_case "basics" `Quick test_family_basics;
          Alcotest.test_case "rows independent" `Quick test_family_rows_independent;
          Alcotest.test_case "of_mapping" `Quick test_family_of_mapping;
          Alcotest.test_case "seeded reproducible" `Quick test_family_seeded_reproducible;
          Alcotest.test_case "probe/hash consistency (rows)" `Quick
            test_rows_probe_hash_consistency;
          Alcotest.test_case "golden columns (seed 49, 4x2048)" `Quick
            test_family_golden_columns;
        ] );
      ( "double-hashing",
        [
          Alcotest.test_case "probe/hash consistency" `Quick
            test_km_probe_hash_consistency;
          Alcotest.test_case "seeded equivalence" `Quick test_km_seeded_equivalence;
          Alcotest.test_case "adjacent rows disagree" `Quick
            test_km_adjacent_rows_disagree;
          Alcotest.test_case "validation" `Quick test_km_validation;
        ] );
      ( "tabulation",
        [
          Alcotest.test_case "range and determinism" `Quick
            test_tabulation_range_and_determinism;
          Alcotest.test_case "avalanche" `Quick test_tabulation_mixes;
        ] );
      ("properties", qcheck_tests);
    ]
