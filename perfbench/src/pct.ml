(** The percentile rule every reported timing follows: a median, plus the
    highest percentile p99, p99.9, … that still has at least ten samples
    beyond it.  So a p99 needs at least 1000 samples, a p99.9 at least
    10000, and below 1000 samples only the median is reported. *)

let sort a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(** Nearest-rank quantile of an already sorted array; [nan] when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** [tail_nines n] — the number of nines of the highest percentile that
    [n] samples support (2 for p99, 3 for p99.9), or [None] below p99. *)
let tail_nines n =
  if n < 1000 then None
  else
    let rec go k need = if n >= need * 10 then go (k + 1) (need * 10) else k in
    Some (go 2 1000)

let p99 sorted =
  if Array.length sorted >= 1000 then Some (quantile sorted 0.99) else None

type summary = {
  n : int;
  p50 : float;
  p99 : float option;  (** only with >= 1000 samples *)
  tail : (string * float) option;
      (** the highest supported percentile, e.g. ["p99.9"] *)
}

let label_of_nines k = "p99" ^ if k > 2 then "." ^ String.make (k - 2) '9' else ""

let summarize samples =
  let s = sort samples in
  let n = Array.length s in
  let tail =
    Option.map
      (fun k ->
        let q = 1. -. (10. ** float_of_int (-k)) in
        (label_of_nines k, quantile s q))
      (tail_nines n)
  in
  { n; p50 = quantile s 0.5; p99 = p99 s; tail }

(** Median of a list (mean of the middle two for an even count). *)
let median l =
  let a = sort (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Size of the chunks {!chunked} cuts a run into: the fewest samples that
    support a p99. *)
let chunk = 1000

(** [chunked q samples] — cut [samples] (in arrival order) into consecutive
    chunks of {!chunk} (the remainder joins the last chunk), take quantile
    [q] of each, and return the median of those, or [None] below one chunk.
    A stall that hits one stretch of the run moves one chunk, not the
    result. *)
let chunks q samples =
  let n = Array.length samples in
  let k = n / chunk in
  List.init k (fun i ->
      let lo = i * chunk in
      let len = if i = k - 1 then n - lo else chunk in
      quantile (sort (Array.sub samples lo len)) q)

let chunked q samples =
  match chunks q samples with [] -> None | qs -> Some (median qs)
