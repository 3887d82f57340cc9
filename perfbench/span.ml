(* In-memory spans and counters for the traced run.  A span records its
   name, start, end, parent span and job id; counters are attached to a
   job at span boundaries.  Recording is domain-safe (one lock), parents
   are passed explicitly so spans opened inside pool workers nest
   correctly, and nothing is written until the run ends. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
}

type t = {
  lock : Mutex.t;
  mutable spans : span list;  (** newest first *)
  mutable counters : (int * string * float) list;  (** job, name, value; newest first *)
  next_id : int Atomic.t;
}

let create () = { lock = Mutex.create (); spans = []; counters = []; next_id = Atomic.make 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_span t s = locked t (fun () -> t.spans <- s :: t.spans)

(* [with_ tr ~job ~parent name f] runs [f id] inside a span [id].  With no
   tracer it is a plain call (the untraced pipelines pay nothing). *)
let with_ tr ~job ?(parent = -1) name f =
  match tr with
  | None -> f (-1)
  | Some t ->
      let id = Atomic.fetch_and_add t.next_id 1 in
      let t0 = Unix.gettimeofday () in
      let finish () = add_span t { id; name; job; parent; t0; t1 = Unix.gettimeofday () } in
      Fun.protect ~finally:finish (fun () -> f id)

let count tr ~job name v =
  match tr with
  | None -> ()
  | Some t -> locked t (fun () -> t.counters <- (job, name, v) :: t.counters)

let spans t = List.rev t.spans
let counters t = List.rev t.counters

(* Total length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: a span's duration minus the part of it that its direct
   children cover.  Overlapping children (parallel parts) count once. *)
let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = s.id && c.job = s.job then Some (c.t0, c.t1) else None)
      all
  in
  (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 children

(* Per-job sums of one span name's durations, in job order. *)
let per_job_total spans name =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.job
          ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt tbl s.job) ~default:0.0))
    spans;
  Hashtbl.fold (fun job v acc -> (job, v) :: acc) tbl [] |> List.sort compare |> List.map snd

(* Per-job sums of one counter, in job order. *)
let per_job_counter counters name =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (job, n, v) ->
      if n = name then
        Hashtbl.replace tbl job (v +. Option.value (Hashtbl.find_opt tbl job) ~default:0.0))
    counters;
  Hashtbl.fold (fun job v acc -> (job, v) :: acc) tbl [] |> List.sort compare |> List.map snd

(* Names in first-recorded order, for the self-time table. *)
let names spans =
  List.fold_left (fun acc s -> if List.mem s.name acc then acc else s.name :: acc) [] spans
  |> List.rev

(* JSON lines: one object per span (with its self time), then one per
   counter.  Times are seconds relative to [origin]. *)
let write_jsonl t ~origin path =
  let all = spans t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"span\":%S,\"id\":%d,\"parent\":%d,\"job\":%d,\"start\":%.6f,\"end\":%.6f,\
             \"self\":%.6f}\n"
            s.name s.id s.parent s.job (s.t0 -. origin) (s.t1 -. origin) (self_time all s))
        all;
      List.iter
        (fun (job, n, v) ->
          Printf.fprintf oc "{\"counter\":%S,\"job\":%d,\"value\":%.17g}\n" n job v)
        (counters t))
