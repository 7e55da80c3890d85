(** Order statistics the benchmark reports. *)

(** Median of a non-empty list (mean of the middle pair for even
    lengths). *)
let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Summary.median: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Geometric mean of a non-empty list of positive values: the mean
    that weighs a 10% change on a small program the same as on a
    large one. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Summary.geomean: no samples"
  | _ ->
      List.iter (fun x -> if x <= 0.0 then invalid_arg "Summary.geomean: non-positive value") xs;
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(** Samples strictly beyond the nearest-rank percentile [q] of [n]
    samples. *)
let beyond ~n q = n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

(** The percentiles the tail picker considers, lowest first. *)
let tail_candidates = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(** The highest candidate percentile with at least 10 samples beyond
    it, with that count: a tail read from fewer samples would be one
    unlucky request, not a percentile.  [None] when even the median has
    too few samples behind it. *)
let tail_pick n =
  List.fold_left
    (fun acc q ->
      let b = beyond ~n q in
      if b >= 10 then Some (q, b) else acc)
    None tail_candidates

(** [num / den], 0 when nothing was attempted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
