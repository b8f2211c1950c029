(** ASCII interval diagrams of histories — Figure 2 of the paper, as text.

    One row per process, one column per event slot; operations render as
    [|--label--|] intervals, pending operations as [|--label--…]. Used by
    the CLI and examples to show executions the way the paper draws them:

    {v
    p0: |-u(5)-|
    p1:         |-u(2)-|
    p2: |------r->2--------|
    v} *)

val render_int : (int, int, int) History.t -> string
(** Multi-line diagram of the int-typed histories the machine and the test
    helpers produce; event index = horizontal position, so overlap in the
    picture is exactly concurrency in the history. *)
