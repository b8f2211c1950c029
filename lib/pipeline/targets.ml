module Countmin (C : sig
  val seed : int64
  val rows : int
  val width : int
end) : Mergeable.S with type t = Sketches.Countmin.t = struct
  type t = Sketches.Countmin.t

  let name = "countmin"

  (* One coin-flip vector for every delta and the global: blobs carry only
     its fingerprint, and decode and fold reject any other. *)
  let family = Hashing.Family.seeded ~seed:C.seed ~rows:C.rows ~width:C.width
  let create () = Sketches.Countmin.create ~family
  let update = Sketches.Countmin.update
  let merge = Sketches.Countmin.merge
  let encode = Wire.Countmin.encode

  let ship d =
    let blob = encode d in
    Sketches.Countmin.reset d;
    (blob, d)

  let decode = Wire.Countmin.decode ~family

  let fold blob =
    Result.map
      (fun apply acc ->
        apply acc;
        acc)
      (Wire.Countmin.fold ~family blob)
end

module Kmv (C : sig
  val seed : int64
  val k : int
end) : Mergeable.S with type t = Sketches.Kmv.t = struct
  type t = Sketches.Kmv.t

  let name = "kmv"
  let create () = Sketches.Kmv.create ~k:C.k ~seed:C.seed ()
  let update = Sketches.Kmv.update
  let merge = Sketches.Kmv.merge
  let encode = Wire.Kmv.encode
  let ship d = (encode d, create ())
  let decode = Wire.Kmv.decode
  let fold blob = Result.map (fun d acc -> merge acc d) (decode blob)
end

module Counter : Mergeable.S with type t = Sketches.Batched_counter.t = struct
  type t = Sketches.Batched_counter.t

  let name = "counter"
  let create () = Sketches.Batched_counter.create ()

  (* Every stream element is one event; the element's value is irrelevant. *)
  let update c _ = Sketches.Batched_counter.update c 1

  let merge a b =
    let c = Sketches.Batched_counter.create () in
    Sketches.Batched_counter.update c (Sketches.Batched_counter.read a);
    Sketches.Batched_counter.update c (Sketches.Batched_counter.read b);
    c

  let encode = Wire.Counter.encode
  let ship d = (encode d, create ())
  let decode = Wire.Counter.decode
  let fold blob = Result.map (fun d acc -> merge acc d) (decode blob)
end
