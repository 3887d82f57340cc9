(* Parallel multi-shift sampling engine.

   PMTBR's cost is the embarrassingly-parallel loop of shifted solves
   z_k = (s_k E - A)^{-1} B (paper eq. 8-11).  This module runs that loop
   over an OCaml 5 domain pool with two properties the algorithms above
   rely on:

   - Factorisation reuse: the symbolic analysis of the sparse LU (pattern
     assembly, fill-reducing ordering, elimination structure) is done once
     per run through [Dss.multi_shift]; each worker pays only a numeric
     refactorisation per shift.

   - Determinism: the sample matrix is assembled in task order from
     per-task blocks, and each block is a pure function of (system, task) —
     never of which worker computed it or when.  Parallel and serial runs
     therefore produce bitwise-identical matrices, which CI enforces.

   Work distribution is [Par_kernel.run_tasks]: workers grab the next
   [chunk] task indices until the queue drains, so slow shifts (fallback
   refactorisations, fill-heavy corners) do not stall a static
   partition. *)

open Pmtbr_la
open Pmtbr_lti

type task = { point : Sampling.point; rhs : Mat.t; hermitian : bool }

type stats = {
  solves : int;
  workers : int;
  factor_s : float;
  solve_s : float;
  wall_s : float;
  busy_s : float array;
}

let default_workers () = Domain.recommended_domain_count ()

(* Degenerate runs (no tasks, or a wall clock too fast to resolve) have
   no meaningful busy fraction; report 0 rather than dividing by zero. *)
let utilisation st =
  if st.wall_s <= 0.0 || Array.length st.busy_s = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 st.busy_s /. (st.wall_s *. float_of_int (Array.length st.busy_s))

(* ------------------------------------------------------------------ *)
(* Realification (step 5 of Algorithm 1)                               *)
(* ------------------------------------------------------------------ *)

(* Real column block for one sample point: a complex sample at +j w also
   stands for its conjugate at -j w, and span{z, z*} = span{Re z, Im z}
   over the reals, so the real and imaginary parts become two real
   columns.  Points with numerically zero imaginary part contribute only
   their real columns. *)
let realify_block ~(weight : float) (cols : Complex.t array array) ~(is_real : bool) =
  let p = Array.length cols in
  assert (p > 0);
  let n = Array.length cols.(0) in
  let w = sqrt (Float.max 0.0 weight) in
  if is_real then Mat.init n p (fun i j -> w *. cols.(j).(i).Complex.re)
  else
    (* conjugate pair weight: both half-axes contribute; the constant
       factor 2 folds into the weight and is irrelevant to the subspace *)
    Mat.init n (2 * p) (fun i j ->
        let z = cols.(j / 2).(i) in
        w *. (if j mod 2 = 0 then z.Complex.re else z.Complex.im))

let is_effectively_real (s : Complex.t) =
  Float.abs s.Complex.im <= 1e-300 +. (1e-12 *. Float.abs s.Complex.re)

(* ------------------------------------------------------------------ *)
(* The solve loop                                                      *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* One task: factor (numeric refactorisation through the shared handle),
   solve, realify.  Pure in (ms, t); the factor and solve seconds it
   returns are observational only. *)
let run_task ms (t : task) =
  let t0 = now () in
  let f = Dss.multi_factor ms ~hermitian:t.hermitian t.point.Sampling.s in
  let t1 = now () in
  let cols = Dss.multi_solve_factored f ~hermitian:t.hermitian t.rhs in
  let block =
    realify_block ~weight:t.point.Sampling.weight cols
      ~is_real:(is_effectively_real t.point.Sampling.s)
  in
  (block, t1 -. t0, now () -. t1)

(* Single-pass assembly in task order: one allocation, one copy of each
   block, instead of the O(total^2) repeated copying of an hcat fold. *)
let assemble (blocks : Mat.t array) =
  let n = blocks.(0).Mat.rows in
  let total_cols = Array.fold_left (fun acc b -> acc + b.Mat.cols) 0 blocks in
  let out = Mat.create n total_cols in
  let off = ref 0 in
  Array.iter
    (fun (b : Mat.t) ->
      assert (b.Mat.rows = n);
      for i = 0 to n - 1 do
        Array.blit b.Mat.data (i * b.Mat.cols) out.Mat.data ((i * total_cols) + !off) b.Mat.cols
      done;
      off := !off + b.Mat.cols)
    blocks;
  out

let run ?workers ?oversubscribe ?chunk ?ms sys (tasks : task array) =
  let nt = Array.length tasks in
  if nt = 0 then invalid_arg "Shift_engine.run: no tasks";
  (* the template shift is the first task's point — independent of the
     worker count, so serial and parallel runs share it.  A caller that
     extends a sample set incrementally ([Sample_cache]) passes its own
     handle so the symbolic analysis is shared across batches too. *)
  let ms =
    match ms with
    | Some ms -> ms
    | None -> Dss.multi_shift ~template:tasks.(0).point.Sampling.s sys
  in
  let t_start = now () in
  let solved, busy_s =
    Par_kernel.run_tasks ?workers ?oversubscribe ?chunk ~context:"the multi-shift solve pool" nt
      (fun i -> run_task ms tasks.(i))
  in
  let wall_s = now () -. t_start in
  let sum f = Array.fold_left (fun acc r -> acc +. f r) 0.0 solved in
  ( assemble (Array.map (fun (b, _, _) -> b) solved),
    {
      solves = nt;
      workers = Array.length busy_s;
      factor_s = sum (fun (_, f, _) -> f);
      solve_s = sum (fun (_, _, s) -> s);
      wall_s;
      busy_s;
    } )

(* ------------------------------------------------------------------ *)
(* Sample-matrix builders                                              *)
(* ------------------------------------------------------------------ *)

let tasks_of_points ~rhs ~hermitian pts =
  Array.map (fun point -> { point; rhs; hermitian }) pts

let build_stats ?workers ?oversubscribe ?chunk sys (pts : Sampling.point array) =
  run ?workers ?oversubscribe ?chunk sys
    (tasks_of_points ~rhs:(Dss.b_matrix sys) ~hermitian:false pts)

let build ?workers ?oversubscribe ?chunk sys pts =
  fst (build_stats ?workers ?oversubscribe ?chunk sys pts)

let build_rhs ?workers ?oversubscribe ?chunk sys ~rhs (pts : Sampling.point array) =
  fst (run ?workers ?oversubscribe ?chunk sys (tasks_of_points ~rhs ~hermitian:false pts))

let build_per_point ?workers ?oversubscribe ?chunk sys (pts_rhs : (Sampling.point * Mat.t) array)
    =
  fst
    (run ?workers ?oversubscribe ?chunk sys
       (Array.map (fun (point, rhs) -> { point; rhs; hermitian = false }) pts_rhs))

let build_left ?workers ?oversubscribe ?chunk sys (pts : Sampling.point array) =
  fst
    (run ?workers ?oversubscribe ?chunk sys
       (tasks_of_points ~rhs:(Mat.transpose (Dss.c_matrix sys)) ~hermitian:true pts))
