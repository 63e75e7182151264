(* What a workload gives the harness.

   [op tr i] runs op [i] in a closed loop (the harness calls it again
   only after it returns) and returns the verdict of the op's output
   oracle.  With a recorder it also records the op's real layer spans
   under [Span.root tr].  [replay tr] then re-runs the op's inner layers
   from outside, on the op's captured inputs, as children of those real
   spans; it returns the replay-fidelity checks that failed. *)

type t = {
  warmup : int;  (** the first ops of every set-up, excluded from latency *)
  before : int -> unit;  (** untimed housekeeping before op [i] *)
  op : Span.t option -> int -> bool;
  replay : Span.t -> string list;
  counts : unit -> (string * (int * int)) list;
      (** each per-layer ratio's numerator and denominator over the
          traced ops so far *)
}

type spec = {
  name : string;
  setup : root:string -> seed:int -> t;
      (** [root] is the repository checkout, where expected outputs are
          read from; [seed] fixes every generated input *)
}

(* [f] inside a span under [parent] when tracing; the span id, or -1. *)
let span tr ~parent name f =
  match tr with
  | None -> (-1, f ())
  | Some t ->
    let id = Span.enter t ~parent name in
    let r = f () in
    Span.leave t id;
    (id, r)
