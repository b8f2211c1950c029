(* Phased, replayable workload traces.

   Determinism contract: every sampler below draws only from a generator
   seeded as [phase_seed spec.seed phase_index]. No wall clock, no global
   RNG, no dependence on domain identity — so materialization is a pure
   function of (seed, phase list) and replays identically on any thread of
   any run. The on-disk format freezes the materialized operations too,
   making replay independent even of future generator changes. *)

type shape =
  | Uniform of { universe : int }
  | Zipf of { universe : int; skew : float }
  | Drift of { universe : int; s0 : float; s1 : float; steps : int }
  | Burst of { universe : int; burst : int }
  | Hot_flip of { universe : int; hot_ratio : float; flip_every : int }
  | Adversarial of { universe : int }
  | Recorded of { universe : int }

type rate =
  | Unlimited
  | Fixed of float
  | Diurnal of { mean : float; amplitude : float; period : float }

type phase = {
  name : string;
  ops : int;
  query_ratio : float;
  rate : rate;
  shape : shape;
}

type spec = { seed : int64; phases : phase list }

let format_version = 1
let block_ops = 65_536

let total_ops spec = List.fold_left (fun acc p -> acc + p.ops) 0 spec.phases

let universe_of = function
  | Uniform { universe }
  | Zipf { universe; _ }
  | Drift { universe; _ }
  | Burst { universe; _ }
  | Hot_flip { universe; _ }
  | Adversarial { universe }
  | Recorded { universe } ->
      universe

let validate_phase i p =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let where = Printf.sprintf "phase %d (%s)" i p.name in
  if p.ops < 0 then fail "%s: negative op count %d" where p.ops
  else if p.query_ratio < 0.0 || p.query_ratio > 1.0 then
    fail "%s: query_ratio %g outside [0,1]" where p.query_ratio
  else if universe_of p.shape <= 0 then fail "%s: empty key universe" where
  else
    let shape_ok =
      match p.shape with
      | Uniform _ | Adversarial _ | Recorded _ -> Ok ()
      | Zipf { skew; _ } ->
          if skew < 0.0 then fail "%s: negative zipf skew %g" where skew else Ok ()
      | Drift { s0; s1; steps; _ } ->
          if s0 < 0.0 || s1 < 0.0 then fail "%s: negative drift skew" where
          else if steps <= 0 then fail "%s: drift needs steps > 0" where
          else Ok ()
      | Burst { burst; _ } ->
          if burst <= 0 then fail "%s: burst length must be positive" where else Ok ()
      | Hot_flip { hot_ratio; flip_every; _ } ->
          if hot_ratio < 0.0 || hot_ratio > 1.0 then
            fail "%s: hot_ratio %g outside [0,1]" where hot_ratio
          else if flip_every <= 0 then fail "%s: flip_every must be positive" where
          else Ok ()
    in
    match shape_ok with
    | Error _ as e -> e
    | Ok () -> (
        match p.rate with
        | Unlimited -> Ok ()
        | Fixed r ->
            if r <= 0.0 then fail "%s: fixed rate must be positive" where else Ok ()
        | Diurnal { mean; amplitude; period } ->
            if mean <= 0.0 then fail "%s: diurnal mean rate must be positive" where
            else if amplitude < 0.0 || amplitude > 1.0 then
              fail "%s: diurnal amplitude %g outside [0,1]" where amplitude
            else if period <= 0.0 then fail "%s: diurnal period must be positive" where
            else Ok ())

let validate spec =
  let rec go i = function
    | [] -> Ok ()
    | p :: rest -> ( match validate_phase i p with Ok () -> go (i + 1) rest | e -> e)
  in
  if spec.phases = [] then Error "trace has no phases" else go 0 spec.phases

(* Golden-ratio increment (as in SplitMix itself) keeps per-phase seeds
   decorrelated even for adjacent phase indices and small trace seeds. *)
let phase_seed seed i =
  Int64.logxor seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)

(* ---------------------------- materialization ---------------------------- *)

let keys_of_phase g p =
  match p.shape with
  | Recorded _ ->
      invalid_arg
        (Printf.sprintf
           "Trace.materialize: phase %s holds recorded operations; replay them from \
            the trace file"
           p.name)
  | Uniform { universe } -> Array.init p.ops (fun _ -> Rng.Splitmix.next_int g universe)
  | Adversarial _ -> Array.make p.ops 0
  | Zipf { universe; skew } ->
      let z = Zipf.create ~n:universe ~s:skew in
      Array.init p.ops (fun _ -> Zipf.sample z g)
  | Drift { universe; s0; s1; steps } ->
      (* Segment boundaries recompute the CDF; within a segment the skew is
         constant, so cost is O(steps * universe + ops log universe). *)
      let seg_len = (p.ops + steps - 1) / max 1 steps in
      let z = ref None in
      Array.init p.ops (fun i ->
          (if seg_len = 0 || i mod seg_len = 0 then
             let k = if seg_len = 0 then 0 else i / seg_len in
             let frac = if steps <= 1 then 0.0 else float_of_int k /. float_of_int (steps - 1) in
             let s = s0 +. ((s1 -. s0) *. frac) in
             z := Some (Zipf.create ~n:universe ~s));
          match !z with
          | Some zz -> Zipf.sample zz g
          | None -> 0)
  | Burst { universe; burst } ->
      let current = ref 0 in
      Array.init p.ops (fun i ->
          if i mod burst = 0 then current := Rng.Splitmix.next_int g universe;
          !current)
  | Hot_flip { universe; hot_ratio; flip_every } ->
      let hot = ref 0 in
      Array.init p.ops (fun i ->
          if i mod flip_every = 0 then hot := Rng.Splitmix.next_int g universe;
          if Rng.Splitmix.next_float g < hot_ratio then !hot
          else Rng.Splitmix.next_int g universe)

let materialize_phase ~seed i p =
  let g = Rng.Splitmix.create (phase_seed seed i) in
  let keys = keys_of_phase g p in
  (* Roles are drawn after all keys so the key sequence of a phase does not
     shift when only query_ratio changes. *)
  Array.map
    (fun k ->
      if Rng.Splitmix.next_float g < p.query_ratio then Scenario.Query k
      else Scenario.Update k)
    keys

let materialize spec =
  (match validate spec with Ok () -> () | Error m -> invalid_arg ("Trace.materialize: " ^ m));
  Array.of_list (List.mapi (fun i p -> materialize_phase ~seed:spec.seed i p) spec.phases)

(* ------------------------------ wire format ------------------------------ *)

let shape_tag = function
  | Uniform _ -> 0
  | Zipf _ -> 1
  | Drift _ -> 2
  | Burst _ -> 3
  | Hot_flip _ -> 4
  | Adversarial _ -> 5
  | Recorded _ -> 6

let write_shape b s =
  let open Wire.Codec in
  u8 b (shape_tag s);
  int_ b (universe_of s);
  match s with
  | Uniform _ | Adversarial _ | Recorded _ -> ()
  | Zipf { skew; _ } -> float_ b skew
  | Drift { s0; s1; steps; _ } ->
      float_ b s0;
      float_ b s1;
      int_ b steps
  | Burst { burst; _ } -> int_ b burst
  | Hot_flip { hot_ratio; flip_every; _ } ->
      float_ b hot_ratio;
      int_ b flip_every

let read_shape r =
  let open Wire.Codec in
  let tag = read_u8 r in
  let universe = read_int r in
  match tag with
  | 0 -> Uniform { universe }
  | 1 -> Zipf { universe; skew = read_float r }
  | 2 ->
      let s0 = read_float r in
      let s1 = read_float r in
      let steps = read_int r in
      Drift { universe; s0; s1; steps }
  | 3 -> Burst { universe; burst = read_int r }
  | 4 ->
      let hot_ratio = read_float r in
      let flip_every = read_int r in
      Hot_flip { universe; hot_ratio; flip_every }
  | 5 -> Adversarial { universe }
  | 6 -> Recorded { universe }
  | t -> corrupt "unknown trace shape tag %d" t

let write_rate b rt =
  let open Wire.Codec in
  match rt with
  | Unlimited -> u8 b 0
  | Fixed r ->
      u8 b 1;
      float_ b r
  | Diurnal { mean; amplitude; period } ->
      u8 b 2;
      float_ b mean;
      float_ b amplitude;
      float_ b period

let read_rate r =
  let open Wire.Codec in
  match read_u8 r with
  | 0 -> Unlimited
  | 1 -> Fixed (read_float r)
  | 2 ->
      let mean = read_float r in
      let amplitude = read_float r in
      let period = read_float r in
      Diurnal { mean; amplitude; period }
  | t -> corrupt "unknown trace rate tag %d" t

let encode_header spec =
  Wire.Codec.encode ~kind:Wire.Codec.trace_header_kind (fun b ->
      let open Wire.Codec in
      u8 b format_version;
      i64 b spec.seed;
      u32 b (List.length spec.phases);
      List.iter
        (fun p ->
          bytes_ b (Bytes.of_string p.name);
          int_ b p.ops;
          float_ b p.query_ratio;
          write_rate b p.rate;
          write_shape b p.shape)
        spec.phases)

let decode_header blob =
  Wire.Codec.decode ~kind:Wire.Codec.trace_header_kind
    (fun r ->
      let open Wire.Codec in
      let v = read_u8 r in
      if v <> format_version then corrupt "unsupported trace format version %d" v;
      let seed = read_i64 r in
      let n = read_u32 r in
      let phases =
        List.init n (fun _ ->
            let name = Bytes.to_string (read_bytes r) in
            let ops = read_int r in
            if ops < 0 then corrupt "negative phase op count %d" ops;
            let query_ratio = read_float r in
            let rate = read_rate r in
            let shape = read_shape r in
            { name; ops; query_ratio; rate; shape })
      in
      { seed; phases })
    blob

let encode_block ~phase ops ~off ~len =
  Wire.Codec.encode ~kind:Wire.Codec.trace_block_kind (fun b ->
      let open Wire.Codec in
      u32 b phase;
      u32 b len;
      for i = off to off + len - 1 do
        match ops.(i) with
        | Scenario.Update k ->
            u8 b 0;
            int_ b k
        | Scenario.Query k ->
            u8 b 1;
            int_ b k
      done)

let decode_block blob =
  Wire.Codec.decode ~kind:Wire.Codec.trace_block_kind
    (fun r ->
      let open Wire.Codec in
      let phase = read_u32 r in
      (* 9 B per op: a u8 tag and an i64 key *)
      let count = read_count r ~elt_bytes:9 in
      let ops =
        Array.init count (fun _ ->
            let tag = read_u8 r in
            let k = read_int r in
            if k < 0 then corrupt "negative trace key %d" k;
            match tag with
            | 0 -> Scenario.Update k
            | 1 -> Scenario.Query k
            | t -> corrupt "unknown trace op tag %d" t)
      in
      (phase, ops))
    blob

let write ~path spec ops =
  match validate spec with
  | Error _ as e -> e
  | Ok () ->
      let n_phases = List.length spec.phases in
      if Array.length ops <> n_phases then
        Error
          (Printf.sprintf "Trace.write: %d op arrays for %d phases" (Array.length ops)
             n_phases)
      else if
        List.exists2
          (fun p arr -> Array.length arr <> p.ops)
          spec.phases (Array.to_list ops)
      then Error "Trace.write: op array length does not match phase op count"
      else begin
        match
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_bytes oc (encode_header spec);
              Array.iteri
                (fun pi arr ->
                  let len = Array.length arr in
                  let off = ref 0 in
                  while !off < len do
                    let n = min block_ops (len - !off) in
                    output_bytes oc (encode_block ~phase:pi arr ~off:!off ~len:n);
                    off := !off + n
                  done)
                ops)
        with
        | () -> Ok ()
        | exception Sys_error m -> Error m
      end

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let frames = ref [] in
        let tail = Wire.Segment.iter ic (fun f -> frames := f :: !frames) in
        (List.rev !frames, tail))
  with
  | exception Sys_error m -> Error m
  | _, Wire.Segment.Torn { valid_prefix; reason; _ } ->
      Error
        (Printf.sprintf "%s: torn trace file after %d bytes (%s)" path valid_prefix
           reason)
  | [], Clean -> Error (path ^ ": empty trace file")
  | header :: blocks, Clean -> (
      match decode_header header with
      | Error e -> Error (path ^ ": bad header: " ^ Wire.Codec.error_to_string e)
      | Ok spec -> (
          let n_phases = List.length spec.phases in
          let acc = Array.make n_phases [] in
          let bad = ref None in
          List.iter
            (fun blob ->
              if !bad = None then
                match decode_block blob with
                | Error e ->
                    bad := Some ("bad block: " ^ Wire.Codec.error_to_string e)
                | Ok (pi, ops) ->
                    if pi < 0 || pi >= n_phases then
                      bad := Some (Printf.sprintf "block for unknown phase %d" pi)
                    else acc.(pi) <- ops :: acc.(pi))
            blocks;
          match !bad with
          | Some m -> Error (path ^ ": " ^ m)
          | None ->
              let ops =
                Array.map (fun bs -> Array.concat (List.rev bs)) acc
              in
              let mismatch = ref None in
              List.iteri
                (fun i p ->
                  if !mismatch = None && Array.length ops.(i) <> p.ops then
                    mismatch :=
                      Some
                        (Printf.sprintf
                           "phase %d (%s): header declares %d ops, file holds %d"
                           i p.name p.ops (Array.length ops.(i))))
                spec.phases;
              (match !mismatch with
              | Some m -> Error (path ^ ": " ^ m)
              | None -> Ok (spec, ops))))

(* ------------------------------ defaults ------------------------------- *)

let default_spec ?(seed = 0x1517L) ~ops ~universe () =
  if ops <= 0 then invalid_arg "Trace.default_spec: ops must be positive";
  if universe <= 0 then invalid_arg "Trace.default_spec: universe must be positive";
  let share f = max 1 (int_of_float (float_of_int ops *. f)) in
  let steady = share 0.30 in
  let drift = share 0.20 in
  let burst = share 0.15 in
  let flip = share 0.20 in
  let adversarial = max 1 (ops - steady - drift - burst - flip) in
  {
    seed;
    phases =
      [
        {
          name = "steady-zipf";
          ops = steady;
          query_ratio = 0.02;
          rate = Unlimited;
          shape = Zipf { universe; skew = 1.1 };
        };
        {
          name = "skew-drift";
          ops = drift;
          query_ratio = 0.02;
          rate = Unlimited;
          shape = Drift { universe; s0 = 0.2; s1 = 1.6; steps = 8 };
        };
        {
          name = "burst-trains";
          ops = burst;
          query_ratio = 0.01;
          rate = Unlimited;
          shape = Burst { universe; burst = 64 };
        };
        {
          name = "diurnal-hot-flip";
          ops = flip;
          query_ratio = 0.05;
          rate = Diurnal { mean = 400_000.0; amplitude = 0.6; period = 2.0 };
          shape = Hot_flip { universe; hot_ratio = 0.5; flip_every = 4096 };
        };
        {
          name = "adversarial-hammer";
          ops = adversarial;
          query_ratio = 0.02;
          rate = Unlimited;
          shape = Adversarial { universe };
        };
      ];
  }

(* ------------------------------ describing ------------------------------ *)

let describe_shape = function
  | Uniform { universe } -> Printf.sprintf "uniform(%d)" universe
  | Zipf { universe; skew } -> Printf.sprintf "zipf(%d, s=%.2f)" universe skew
  | Drift { universe; s0; s1; steps } ->
      Printf.sprintf "drift(%d, s=%.2f→%.2f, steps=%d)" universe s0 s1 steps
  | Burst { universe; burst } -> Printf.sprintf "burst(%d, train=%d)" universe burst
  | Hot_flip { universe; hot_ratio; flip_every } ->
      Printf.sprintf "hot-flip(%d, hot=%.0f%%, every=%d)" universe (100.0 *. hot_ratio)
        flip_every
  | Adversarial { universe } -> Printf.sprintf "adversarial(%d)" universe
  | Recorded { universe } -> Printf.sprintf "recorded(%d)" universe

let describe_rate = function
  | Unlimited -> "closed-loop"
  | Fixed r -> Printf.sprintf "%.0f op/s" r
  | Diurnal { mean; amplitude; period } ->
      Printf.sprintf "diurnal(%.0f op/s ±%.0f%%, period=%.1fs)" mean (100.0 *. amplitude)
        period

let describe spec =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "trace v%d seed=%Ld ops=%d phases=%d\n" format_version spec.seed
       (total_ops spec) (List.length spec.phases));
  List.iteri
    (fun i p ->
      Buffer.add_string b
        (Printf.sprintf "  %d %-18s ops=%-9d queries=%4.1f%%  %-14s %s\n" i p.name p.ops
           (100.0 *. p.query_ratio) (describe_rate p.rate) (describe_shape p.shape)))
    spec.phases;
  Buffer.contents b
