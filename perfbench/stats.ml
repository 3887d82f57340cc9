(* Order statistics used by the run summary. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Median, or [0.] when a layer did no work in this run. *)
let median0 = function [] -> 0.0 | xs -> median xs

type tail = {
  pct : float;  (** the percentile reported *)
  value : float;  (** nearest-rank value at that percentile *)
  beyond : int;  (** samples strictly past its rank *)
  n : int;  (** samples in total *)
}

(* candidate percentiles in tenths, so ranks are exact integer arithmetic *)
let candidates = [ 999; 990; 950; 900; 750; 500 ]

(* samples a reported tail percentile must have past it *)
let min_beyond = 10

(* The highest candidate percentile with at least [min_beyond] samples
   past its nearest rank [ceil (pct/100 * n)]; [None] when even the
   median has fewer, so the tail is not reported. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun tenths ->
      let rank = ((tenths * n) + 999) / 1000 in
      if rank >= 1 && n - rank >= min_beyond then
        Some { pct = float_of_int tenths /. 10.0; value = a.(rank - 1); beyond = n - rank; n }
      else None)
    candidates
