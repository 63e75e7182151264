(* Order statistics over samples. *)

(* [percentile sorted p], p in [0, 100], linear interpolation between
   the closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let r = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate r in
  let hi = min (n - 1) (lo + 1) in
  let f = r -. float_of_int lo in
  (sorted.(lo) *. (1. -. f)) +. (sorted.(hi) *. f)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 50.

(* The quartiles Python's [statistics.quantiles(data, n=4)] returns
   (its default "exclusive" method); needs at least two samples. *)
let quartiles l =
  let d = sorted_of_list l in
  let n = Array.length d in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread l =
  let q1, med, q3 = quartiles l in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* Latency histogram in buckets 1% wide, [1.01^k, 1.01^(k+1)) ns, so a
   long run's samples take fixed memory that the heap metrics do not
   see grow. *)
module Hist = struct
  let size = 2600 (* 1.01^2600 ns is about 48 hours *)
  let log_base = log 1.01
  let create () = Array.make size 0
  let clear h = Array.fill h 0 size 0
  let lower k = exp (float_of_int k *. log_base)

  let add h ns =
    let k = min (size - 1) (truncate (log (float_of_int (max 1 ns)) /. log_base)) in
    h.(k) <- h.(k) + 1

  (* [percentile h p] in ns: the rank [p/100 * (n-1)], placed linearly
     inside its bucket *)
  let percentile h p =
    let n = Array.fold_left ( + ) 0 h in
    if n = 0 then invalid_arg "Stats.Hist.percentile: no samples";
    let r = p /. 100. *. float_of_int (n - 1) in
    let rec go k below =
      let c = h.(k) in
      if float_of_int (below + c) > r || k = size - 1 then
        let f = (r -. float_of_int below +. 0.5) /. float_of_int (max 1 c) in
        lower k +. ((lower (k + 1) -. lower k) *. Float.min 1. f)
      else go (k + 1) (below + c)
    in
    go 0 0
end
