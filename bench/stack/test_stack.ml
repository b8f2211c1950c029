(* Unit tests of the stack benchmark's pure metric code: visibility latency,
   percentiles and quartiles, window slices, failed_frac, span self time,
   the JSON reader, and the monotone check with its negative control. *)

open Stack_measure

let close = Alcotest.float 1e-9

let vis ?(base = 0) ~ts ~total keys =
  let idx = Array.map fst keys and due = Array.map snd keys in
  Measure.visibility ~ts ~total ~base ~idx ~due

let test_visibility_basic () =
  (* key i is visible once the total covers base + i + 1 *)
  let ts = [| 1.0; 2.0; 3.0; 4.0 |] and total = [| 100; 101; 103; 110 |] in
  let lat, unresolved =
    vis ~base:100 ~ts ~total [| (0, 0.5); (1, 0.5); (2, 0.5); (9, 0.5) |]
  in
  Alcotest.(check int) "all resolved" 0 unresolved;
  Alcotest.(check (array close)) "latencies" [| 1.5; 2.5; 2.5; 3.5 |] lat

let test_visibility_stride () =
  (* only every 31st key is sampled; the others still count toward the
     total that makes a sampled key visible *)
  Alcotest.(check bool) "0 sampled" true (Measure.sampled 0);
  Alcotest.(check bool) "30 not sampled" false (Measure.sampled 30);
  Alcotest.(check bool) "31 sampled" true (Measure.sampled Measure.stride);
  let ts = [| 10.0; 20.0; 30.0 |] and total = [| 31; 62; 93 |] in
  let keys = Array.init 3 (fun k -> (k * Measure.stride, 5.0)) in
  let lat, unresolved = vis ~ts ~total keys in
  Alcotest.(check int) "resolved" 0 unresolved;
  Alcotest.(check (array close)) "one sample per stride" [| 5.0; 15.0; 25.0 |] lat

let test_visibility_equal_timestamps () =
  (* two samples at one instant: the first that reaches the weight wins,
     and a sample taken before the key was due never counts *)
  let ts = [| 1.0; 1.0; 2.0 |] and total = [| 0; 5; 5 |] in
  let lat, _ = vis ~ts ~total [| (0, 0.0); (4, 1.0); (3, 1.5) |] in
  Alcotest.(check (array close)) "equal stamps" [| 1.0; 0.0; 0.5 |] lat

let test_visibility_at_drain () =
  (* the window closes with keys still in partial deltas; the drain
     publishes them and the sampler, still polling, resolves them *)
  let ts = [| 1.0; 2.0; 3.0; 9.0 |] and total = [| 10; 20; 20; 50 |] in
  let lat, unresolved = vis ~ts ~total [| (5, 0.5); (30, 2.5); (49, 2.9) |] in
  Alcotest.(check int) "resolved at drain" 0 unresolved;
  Alcotest.(check (array close)) "drain latencies" [| 0.5; 6.5; 6.1 |] lat;
  let lat, unresolved = vis ~ts ~total [| (50, 2.9) |] in
  Alcotest.(check int) "never published" 1 unresolved;
  Alcotest.(check bool) "infinite" true (lat.(0) = infinity)

let test_visibility_follower_dip () =
  (* a follower that dips during a resync still showed the weight *)
  let ts = [| 1.0; 2.0; 3.0 |] and total = [| 5; 3; 5 |] in
  let lat, _ = vis ~ts ~total [| (4, 0.0) |] in
  Alcotest.(check (array close)) "running max" [| 1.0 |] lat

let test_percentiles () =
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check close "p0" 1.0 (Measure.percentile a 0.0);
  Alcotest.check close "p50" 3.0 (Measure.percentile a 50.0);
  Alcotest.check close "p90" 4.6 (Measure.percentile a 90.0);
  Alcotest.check close "p100" 5.0 (Measure.percentile a 100.0);
  Alcotest.check close "empty" 0.0 (Measure.percentile [||] 99.0);
  Alcotest.check close "median" 3.0 (Measure.median a);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 =
    Measure.quartiles (Array.init 10 (fun i -> float_of_int (i + 1)))
  in
  Alcotest.(check (list close))
    "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (* statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Measure.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (list close)) "three values" [ 1.0; 2.0; 3.0 ] [ q1; q2; q3 ]

let test_slices () =
  let edges = [| 0.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check (list int)) "slice_of" [ -1; 0; 0; 1; 2; -1 ]
    (List.map (Measure.slice_of edges) [ -0.5; 0.0; 0.99; 1.0; 2.5; 3.0 ]);
  (* one slow second does not move the median *)
  let times = [| 0.1; 0.2; 1.1; 1.2; 2.1; 2.2; 5.0 |] in
  let values = [| 1.0; 3.0; 2.0; 4.0; 100.0; 200.0; 1e9 |] in
  Alcotest.check close "median of slice medians" 3.0
    (Measure.slice_median ~edges ~times ~values Measure.median);
  Alcotest.check close "counter rate" 10.0
    (Measure.slice_rate ~edges ~counts:[| 0; 10; 20; 1000 |]);
  Alcotest.check close "event rate" 2.0
    (Measure.slice_event_rate ~edges
       ~times:[| 0.1; 0.2; 1.5; 2.1; 2.2; 2.3; 7.0 |])

let test_failed_frac () =
  Alcotest.check close "none" 0.0 (Measure.failed_frac ~attempted:1000 ~failed:0);
  Alcotest.check close "some" 0.25 (Measure.failed_frac ~attempted:8 ~failed:2);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Measure.failed_frac: nothing attempted") (fun () ->
      ignore (Measure.failed_frac ~attempted:0 ~failed:0))

let test_monotone () =
  Alcotest.(check (option int)) "non-decreasing" None
    (Measure.first_decrease [| 1; 1; 2; 5; 5 |]);
  (* negative control: a leader total that goes backwards must fail *)
  Alcotest.(check (option int)) "decrease found" (Some 3)
    (Measure.first_decrease [| 1; 2; 4; 3; 6 |])

let test_self_time () =
  (* parent [0,100] with overlapping children [10,30] and [20,50] and a
     disjoint [60,70]: covered 50, self 50; a child's own self time is
     its duration *)
  let start = [| 0; 10; 20; 60 |] and stop = [| 100; 30; 50; 70 |] in
  let parent = [| -1; 0; 0; 0 |] in
  Alcotest.(check (array int)) "self"
    [| 50; 20; 30; 10 |]
    (Measure.self_times ~start ~stop ~parent)

let test_json () =
  let j = Json.parse {|{"a": [1, 2.5e1, "x\"y"], "b": {"c": true, "d": null}}|} in
  Alcotest.(check (list close)) "numbers" [ 1.0; 25.0 ]
    (List.filteri (fun i _ -> i < 2) (Json.to_list (Json.member "a" j))
    |> List.map Json.to_float);
  Alcotest.(check string) "escape" "x\"y"
    (Json.to_string (List.nth (Json.to_list (Json.member "a" j)) 2));
  Alcotest.(check bool) "bool" true
    (Json.member "c" (Json.member "b" j) = Json.Bool true);
  Alcotest.check_raises "trailing" (Failure "json: trailing data at byte 3")
    (fun () -> ignore (Json.parse "{} x"))

let () =
  Alcotest.run "stack"
    [
      ( "visibility",
        [
          Alcotest.test_case "basic" `Quick test_visibility_basic;
          Alcotest.test_case "stride" `Quick test_visibility_stride;
          Alcotest.test_case "equal timestamps" `Quick
            test_visibility_equal_timestamps;
          Alcotest.test_case "resolved at drain" `Quick test_visibility_at_drain;
          Alcotest.test_case "follower dip" `Quick test_visibility_follower_dip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "slices" `Quick test_slices;
          Alcotest.test_case "failed_frac" `Quick test_failed_frac;
          Alcotest.test_case "monotone" `Quick test_monotone;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "json" `Quick test_json;
        ] );
    ]
