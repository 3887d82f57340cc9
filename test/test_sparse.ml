(* Tests for the sparse substrate: CSC assembly, orderings, sparse LU. *)

open Pmtbr_la
open Pmtbr_sparse

let check_small ?(tol = 1e-9) msg value =
  if Float.abs value > tol then Alcotest.failf "%s: |%.3e| > %g" msg value tol

(* A sparse diagonally dominant test matrix shaped like a 1-D Laplacian with
   a few random long-range couplings. *)
let laplacian_like ?(seed = 1) n =
  let t = Triplet.create n n in
  for i = 0 to n - 1 do
    Triplet.add t i i 4.0;
    if i > 0 then Triplet.add t i (i - 1) (-1.0);
    if i < n - 1 then Triplet.add t i (i + 1) (-1.0)
  done;
  let r = Mat.random ~seed 8 2 in
  for k = 0 to 7 do
    let i = abs (int_of_float (Mat.get r k 0 *. 1000.0)) mod n in
    let j = abs (int_of_float (Mat.get r k 1 *. 1000.0)) mod n in
    if i <> j then Triplet.add t i j (-0.3)
  done;
  t

let test_triplet_roundtrip () =
  let t = Triplet.create 3 3 in
  Triplet.add t 0 0 1.0;
  Triplet.add t 0 0 2.0;
  (* duplicate: summed *)
  Triplet.add t 2 1 5.0;
  let m = Csc.of_triplet t in
  Alcotest.(check (float 0.0)) "summed dup" 3.0 (Csc.R.get m 0 0);
  Alcotest.(check (float 0.0)) "entry" 5.0 (Csc.R.get m 2 1);
  Alcotest.(check (float 0.0)) "zero" 0.0 (Csc.R.get m 1 1);
  Alcotest.(check int) "nnz" 2 (Csc.R.nnz m)

let test_csc_mv () =
  let t = laplacian_like 20 in
  let m = Csc.of_triplet t in
  let d = Csc.to_dense m in
  let x = Array.init 20 (fun i -> sin (float_of_int i)) in
  check_small "mv vs dense" (Vec.max_abs_diff (Csc.R.mv m x) (Mat.mv d x));
  check_small "mv^T vs dense" (Vec.max_abs_diff (Csc.R.mv_transposed m x) (Mat.mv_transposed d x))

let test_csc_transpose () =
  let t = laplacian_like ~seed:3 15 in
  let m = Csc.of_triplet t in
  let mt = Csc.R.transpose m in
  let d = Csc.to_dense m and dt = Csc.to_dense mt in
  check_small "transpose" (Mat.frobenius (Mat.sub dt (Mat.transpose d)))

let test_csc_add_scale () =
  let t = laplacian_like ~seed:5 10 in
  let m = Csc.of_triplet t in
  let two_m = Csc.R.add m m in
  let d = Csc.to_dense m in
  check_small "add" (Mat.frobenius (Mat.sub (Csc.to_dense two_m) (Mat.scale 2.0 d)));
  let sm = Csc.R.scale 3.0 m in
  check_small "scale" (Mat.frobenius (Mat.sub (Csc.to_dense sm) (Mat.scale 3.0 d)))

let test_complex_combination () =
  let e = Triplet.create 2 2 in
  Triplet.add e 0 0 1.0;
  Triplet.add e 1 1 2.0;
  let a = Triplet.create 2 2 in
  Triplet.add a 0 1 1.0;
  Triplet.add a 1 0 (-1.0);
  let s = { Complex.re = 0.0; im = 3.0 } in
  let m = Csc.complex_combination ~alpha:s e ~beta:{ Complex.re = -1.0; im = 0.0 } a in
  let d = Csc.to_dense_complex m in
  (* sE - A = [[3i, -1], [1, 6i]] *)
  let expect = Cmat.of_arrays
      [| [| { Complex.re = 0.0; im = 3.0 }; { Complex.re = -1.0; im = 0.0 } |];
         [| { Complex.re = 1.0; im = 0.0 }; { Complex.re = 0.0; im = 6.0 } |] |]
  in
  check_small "sE - A" (Cmat.frobenius (Cmat.sub d expect))

let permutation_ok name p n =
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then Alcotest.failf "%s: invalid permutation" name;
      seen.(i) <- true)
    p;
  Alcotest.(check int) (name ^ " length") n (Array.length p)

let test_orderings_are_permutations () =
  let t = laplacian_like ~seed:7 30 in
  let m = Csc.of_triplet t in
  permutation_ok "natural" (Ordering.compute Ordering.Natural m.Csc.R.colptr m.Csc.R.rowind 30) 30;
  permutation_ok "rcm" (Ordering.compute Ordering.Rcm m.Csc.R.colptr m.Csc.R.rowind 30) 30;
  permutation_ok "min_degree" (Ordering.compute Ordering.Min_degree m.Csc.R.colptr m.Csc.R.rowind 30) 30

let test_rcm_reduces_bandwidth () =
  (* a star graph has terrible natural bandwidth; RCM should not *increase*
     the profile of a path graph shuffled at random *)
  let n = 40 in
  let t = Triplet.create n n in
  (* random relabelled path *)
  let label = Array.init n (fun i -> (i * 17) mod n) in
  for i = 0 to n - 1 do
    Triplet.add t label.(i) label.(i) 4.0
  done;
  for i = 0 to n - 2 do
    Triplet.add t label.(i) label.(i + 1) (-1.0);
    Triplet.add t label.(i + 1) label.(i) (-1.0)
  done;
  let m = Csc.of_triplet t in
  let p = Ordering.rcm m.Csc.R.colptr m.Csc.R.rowind n in
  (* inverse permutation: position of each node in the order *)
  let pos = Array.make n 0 in
  Array.iteri (fun k i -> pos.(i) <- k) p;
  let bw = ref 0 in
  for i = 0 to n - 2 do
    bw := max !bw (abs (pos.(label.(i)) - pos.(label.(i + 1))))
  done;
  if !bw > 2 then Alcotest.failf "rcm bandwidth %d on a path" !bw

let sparse_solve_check ?(ordering = Ordering.Natural) t =
  let m = Csc.of_triplet t in
  let n = m.Csc.R.rows in
  let f = Sparse_lu.R.factorize ~ordering m in
  let b = Array.init n (fun i -> cos (float_of_int i)) in
  let x = Sparse_lu.R.solve_vec f b in
  check_small ~tol:1e-9 "Ax - b" (Vec.max_abs_diff (Csc.R.mv m x) b);
  let xt = Sparse_lu.R.solve_transposed_vec f b in
  check_small ~tol:1e-9 "A^T x - b" (Vec.max_abs_diff (Csc.R.mv_transposed m xt) b)

let test_sparse_lu_natural () = sparse_solve_check (laplacian_like ~seed:11 50)
let test_sparse_lu_rcm () = sparse_solve_check ~ordering:Ordering.Rcm (laplacian_like ~seed:13 50)

let test_sparse_lu_min_degree () =
  sparse_solve_check ~ordering:Ordering.Min_degree (laplacian_like ~seed:17 50)

let test_sparse_lu_vs_dense () =
  let t = laplacian_like ~seed:19 25 in
  let m = Csc.of_triplet t in
  let d = Csc.to_dense m in
  let b = Array.init 25 (fun i -> float_of_int (i mod 5) -. 2.0) in
  let xs = Sparse_lu.R.solve_vec (Sparse_lu.R.factorize m) b in
  let xd = Mat.solve_vec d b in
  check_small ~tol:1e-9 "sparse vs dense" (Vec.max_abs_diff xs xd)

let test_sparse_lu_singular () =
  let t = Triplet.create 3 3 in
  Triplet.add t 0 0 1.0;
  Triplet.add t 1 1 1.0;
  (* row/col 2 empty -> structurally singular *)
  let m = Csc.R.of_entries 3 3 (Triplet.entries t) in
  (try
     ignore (Sparse_lu.R.factorize m);
     Alcotest.fail "expected Singular"
   with Sparse_lu.R.Singular _ -> ())

let test_sparse_lu_needs_pivoting () =
  (* zero diagonal forces row pivoting *)
  let t = Triplet.create 2 2 in
  Triplet.add t 0 1 1.0;
  Triplet.add t 1 0 1.0;
  let m = Csc.of_triplet t in
  let f = Sparse_lu.R.factorize m in
  let x = Sparse_lu.R.solve_vec f [| 3.0; 4.0 |] in
  check_small "pivoted solve" (Vec.max_abs_diff x [| 4.0; 3.0 |])

let test_complex_sparse_lu () =
  let e = laplacian_like ~seed:23 30 in
  let a = Triplet.create 30 30 in
  for i = 0 to 29 do
    Triplet.add a i i (-1.0 -. (0.1 *. float_of_int i))
  done;
  let p = Shifted.pencil ~e ~a in
  let s = { Complex.re = 0.1; im = 2.0 } in
  let f = Shifted.factorize p s in
  let b = Mat.random ~seed:29 30 2 in
  let cols = Shifted.zsolve_dense f b in
  (* residual against the dense assembly *)
  let dm =
    Cmat.axpby_real ~alpha:s (Csc.to_dense (Csc.of_triplet e)) ~beta:{ Complex.re = -1.0; im = 0.0 }
      (Csc.to_dense (Csc.of_triplet a))
  in
  Array.iteri
    (fun j x ->
      let r = Cvec.sub (Cmat.mv dm x) (Array.init 30 (fun i -> { Complex.re = Mat.get b i j; im = 0.0 })) in
      check_small ~tol:1e-9 "complex shifted residual" (Cvec.max_abs r))
    cols

let test_shifted_hermitian_solve () =
  let e = laplacian_like ~seed:31 20 in
  let a = Triplet.create 20 20 in
  for i = 0 to 19 do
    Triplet.add a i i (-2.0);
    if i > 0 then Triplet.add a i (i - 1) 0.5
  done;
  let p = Shifted.pencil ~e ~a in
  let s = { Complex.re = 0.3; im = 1.5 } in
  let f = Shifted.factorize p s in
  let b = Mat.random ~seed:37 20 1 in
  let x = (Shifted.zsolve_hermitian_dense f b).(0) in
  let dm =
    Cmat.axpby_real ~alpha:s (Csc.to_dense (Csc.of_triplet e)) ~beta:{ Complex.re = -1.0; im = 0.0 }
      (Csc.to_dense (Csc.of_triplet a))
  in
  let r =
    Cvec.sub
      (Cmat.mv (Cmat.conj_transpose dm) x)
      (Array.init 20 (fun i -> { Complex.re = Mat.get b i 0; im = 0.0 }))
  in
  check_small ~tol:1e-9 "hermitian solve residual" (Cvec.max_abs r)

(* property: sparse LU solves random sparse diagonally dominant systems *)
let prop_sparse_lu =
  QCheck2.Test.make ~name:"sparse lu solves dd systems" ~count:30
    QCheck2.Gen.(pair (int_range 3 60) (int_range 0 10_000))
    (fun (n, seed) ->
      let t = laplacian_like ~seed n in
      let m = Csc.of_triplet t in
      let f = Sparse_lu.R.factorize ~ordering:Ordering.Rcm m in
      let b = Array.init n (fun i -> float_of_int ((i mod 7) - 3)) in
      let x = Sparse_lu.R.solve_vec f b in
      Vec.max_abs_diff (Csc.R.mv m x) b < 1e-8)

let prop_orderings_preserve_solution =
  QCheck2.Test.make ~name:"solution independent of ordering" ~count:20
    QCheck2.Gen.(pair (int_range 3 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let t = laplacian_like ~seed n in
      let m = Csc.of_triplet t in
      let b = Array.init n (fun i -> sin (float_of_int (i * i))) in
      let solve o = Sparse_lu.R.solve_vec (Sparse_lu.R.factorize ~ordering:o m) b in
      let x1 = solve Ordering.Natural and x2 = solve Ordering.Rcm and x3 = solve Ordering.Min_degree in
      Vec.max_abs_diff x1 x2 < 1e-8 && Vec.max_abs_diff x1 x3 < 1e-8)

(* property: a refactorisation against a template (same pattern, new
   values) solves as well as a fresh factorisation, on both sides, and
   reuses the template's fill exactly *)
let prop_refactorize_matches_fresh =
  QCheck2.Test.make ~name:"refactorize matches fresh factorization" ~count:25
    QCheck2.Gen.(pair (int_range 3 50) (int_range 0 10_000))
    (fun (n, seed) ->
      let t = laplacian_like ~seed n in
      let m = Csc.of_triplet t in
      let tpl = Sparse_lu.R.factorize ~ordering:Ordering.Rcm m in
      (* same pattern, perturbed values: entrywise jitter that never lands
         on zero, so the nonzero structure is untouched *)
      let values2 =
        Array.mapi
          (fun k v -> v *. (1.0 +. (0.4 *. sin (float_of_int ((k * 37) + seed)))))
          m.Csc.R.values
      in
      let m2 = { m with Csc.R.values = values2 } in
      let f2 = Sparse_lu.R.refactorize tpl m2 in
      let b = Array.init n (fun i -> float_of_int ((i mod 9) - 4)) in
      let x = Sparse_lu.R.solve_vec f2 b in
      let xt = Sparse_lu.R.solve_transposed_vec f2 b in
      Vec.max_abs_diff (Csc.R.mv m2 x) b < 1e-8
      && Vec.max_abs_diff (Csc.R.mv_transposed m2 xt) b < 1e-8
      && Sparse_lu.R.nnz f2 = Sparse_lu.R.nnz tpl)

let test_refactorize_pattern_mismatch () =
  (* entries *outside* the template pattern must be rejected (a subset
     pattern is fine — missing entries are zeros and propagate correctly) *)
  let tridiag n =
    let t = Triplet.create n n in
    for i = 0 to n - 1 do
      Triplet.add t i i 4.0;
      if i > 0 then Triplet.add t i (i - 1) (-1.0);
      if i < n - 1 then Triplet.add t i (i + 1) (-1.0)
    done;
    t
  in
  let tpl = Sparse_lu.R.factorize (Csc.of_triplet (tridiag 12)) in
  let t2 = tridiag 12 in
  Triplet.add t2 11 0 (-0.5);
  (* long-range coupling the template never saw *)
  let m2 = Csc.of_triplet t2 in
  match Sparse_lu.R.refactorize tpl m2 with
  | _ -> Alcotest.fail "expected Invalid_argument on pattern mismatch"
  | exception Invalid_argument _ -> ()

(* The boxed functor kept as the oracle: (sE - A) assembled by Csc and
   factored by Sparse_lu.C, solved on either side. *)
let boxed_solve ~hermitian e a s (b : Mat.t) =
  let n = b.Mat.rows in
  let m = Csc.complex_combination ~alpha:s e ~beta:{ Complex.re = -1.0; im = 0.0 } a in
  let m = Csc.C.of_entries n n (Csc.C.to_entries m) in
  let f = Sparse_lu.C.factorize ~ordering:Ordering.Rcm m in
  Array.init b.Mat.cols (fun j ->
      let rhs = Array.init n (fun i -> { Complex.re = Mat.get b i j; im = 0.0 }) in
      if hermitian then
        Array.map Complex.conj (Sparse_lu.C.solve_transposed_vec f (Array.map Complex.conj rhs))
      else Sparse_lu.C.solve_vec f rhs)

let close cols cols' = Array.for_all2 (fun x y -> Cvec.max_abs (Cvec.sub x y) < 1e-8) cols cols'

(* property: the unboxed complex replay (Shifted.refactor_z) agrees with a
   fresh boxed factorisation at the same shift, on both solve sides *)
let prop_zreplay_matches_fresh =
  QCheck2.Test.make ~name:"unboxed replay matches fresh complex LU" ~count:20
    QCheck2.Gen.(
      tup4 (int_range 3 40) (int_range 0 10_000) (float_range 0.05 5.0) (float_range 0.05 5.0))
    (fun (n, seed, sre, sim) ->
      let e = laplacian_like ~seed n in
      let a = Triplet.create n n in
      for i = 0 to n - 1 do
        Triplet.add a i i (-1.0 -. (0.1 *. float_of_int i))
      done;
      let p = Shifted.pencil ~e ~a in
      let m = Shifted.prepare p ~template:{ Complex.re = 0.0; im = 1.0 } in
      let s = { Complex.re = sre; im = sim } in
      let zf = Shifted.refactor_z m s in
      let b = Mat.random ~seed:(seed + 1) n 2 in
      close (Shifted.zsolve_dense zf b) (boxed_solve ~hermitian:false e a s b)
      && close (Shifted.zsolve_hermitian_dense zf b) (boxed_solve ~hermitian:true e a s b))

(* A random sparse complex matrix with no diagonal dominance, so row
   pivoting really happens; some draws are structurally singular, and
   parts drawn from a few small values make pivot candidates of equal
   magnitude, so the tie-break is exercised too. *)
let random_complex_csc rng n =
  let entries = ref [] in
  let ties = [| 0.0; 1.0; -1.0; 0.5; 2.0 |] in
  for j = 0 to n - 1 do
    for _ = 0 to Random.State.int rng 4 do
      let i = Random.State.int rng n in
      let v () =
        if Random.State.int rng 5 > 0 then ties.(Random.State.int rng (Array.length ties))
        else Random.State.float rng 2.0 -. 1.0
      in
      entries := (i, j, { Complex.re = v (); im = v () }) :: !entries
    done
  done;
  Csc.C.of_entries n n !entries

let random_permutation rng n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let same_bits (x : float array) (y : float array) len =
  let ok = ref true in
  for k = 0 to len - 1 do
    if Int64.bits_of_float x.(k) <> Int64.bits_of_float y.(k) then ok := false
  done;
  !ok

let same_ints (x : int array) (y : int array) len = Array.sub x 0 len = Array.sub y 0 len

(* property: the unboxed pivoting LU is bitwise the boxed Sparse_lu.C
   factorisation under the same column order — pinv, q, L, U and the
   pivots — and fails with the same Singular column *)
let prop_zfactorize_bitwise =
  QCheck2.Test.make ~name:"unboxed pivoting LU == Sparse_lu.C (bitwise)" ~count:200
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = random_complex_csc rng n in
      let q = random_permutation rng n in
      let boxed =
        match Sparse_lu.C.factorize ~ordering:(Ordering.Given q) m with
        | f -> Ok (Sparse_lu.C.raw f)
        | exception Sparse_lu.C.Singular k -> Error k
      in
      let re = Array.map (fun z -> z.Complex.re) m.Csc.C.values in
      let im = Array.map (fun z -> z.Complex.im) m.Csc.C.values in
      let unboxed =
        match Shifted.zfactorize ~colptr:m.Csc.C.colptr ~rowind:m.Csc.C.rowind ~re ~im q with
        | f -> Ok f
        | exception Sparse_lu.C.Singular k -> Error k
      in
      match (boxed, unboxed) with
      | Error k, Error k' -> k = k'
      | Ok r, Ok z ->
          let part values = (Array.map (fun c -> c.Complex.re) values, Array.map (fun c -> c.Complex.im) values) in
          let lre, lim = part r.Sparse_lu.C.raw_l_values and ure, uim = part r.Sparse_lu.C.raw_u_values in
          let dre, dim = part r.Sparse_lu.C.raw_u_diag in
          let nl = z.Shifted.zl_colptr.(n) and nu = z.Shifted.zu_colptr.(n) in
          z.Shifted.zn = n
          && z.Shifted.zpinv = r.Sparse_lu.C.raw_pinv
          && z.Shifted.zq = r.Sparse_lu.C.raw_q
          && z.Shifted.zl_colptr = r.Sparse_lu.C.raw_l_colptr
          && z.Shifted.zu_colptr = r.Sparse_lu.C.raw_u_colptr
          && Array.length z.Shifted.zl_rowind = nl
          && Array.length z.Shifted.zu_rowind = nu
          && same_ints z.Shifted.zl_rowind r.Sparse_lu.C.raw_l_rowind nl
          && same_ints z.Shifted.zu_rowind r.Sparse_lu.C.raw_u_rowind nu
          && same_bits z.Shifted.zl_re lre nl
          && same_bits z.Shifted.zl_im lim nl
          && same_bits z.Shifted.zu_re ure nu
          && same_bits z.Shifted.zu_im uim nu
          && same_bits z.Shifted.zd_re dre n
          && same_bits z.Shifted.zd_im dim n
      | _ -> false)

(* The stale-pivot fallback: sE - A = [[s - 1, 1]; [1, 1]] factored at
   s = j keeps row 0 as the first pivot, which is exactly zero at s = 1,
   so the replay must hand over to a fresh pivoting factorisation. *)
let test_stale_pivot_fallback () =
  let e = Triplet.create 2 2 and a = Triplet.create 2 2 in
  Triplet.add e 0 0 1.0;
  Triplet.add a 0 0 1.0;
  Triplet.add a 0 1 (-1.0);
  Triplet.add a 1 0 (-1.0);
  Triplet.add a 1 1 (-1.0);
  let m =
    Shifted.prepare ~ordering:Ordering.Natural (Shifted.pencil ~e ~a)
      ~template:{ Complex.re = 0.0; im = 1.0 }
  in
  let b = Mat.of_arrays [| [| 3.0; 1.0 |]; [| 4.0; -2.0 |] |] in
  List.iter
    (fun s ->
      let f = Shifted.refactor_z m s in
      let x = Shifted.zsolve_dense f b and xh = Shifted.zsolve_hermitian_dense f b in
      if not (close x (boxed_solve ~hermitian:false e a s b)) then
        Alcotest.failf "fallback solve wrong at s = %g%+gi" s.Complex.re s.Complex.im;
      if not (close xh (boxed_solve ~hermitian:true e a s b)) then
        Alcotest.failf "fallback hermitian solve wrong at s = %g%+gi" s.Complex.re s.Complex.im)
    [ Complex.one; { Complex.re = 1.0; im = 1e-14 }; { Complex.re = 3.0; im = 0.5 } ]

(* Random symmetric-ish patterns for the ordering properties: a sparse
   random graph (so disconnected pieces and isolated nodes occur), and
   sometimes one node coupled to every other (a dense row and column). *)
let random_pattern rng n ~dense =
  let t = Triplet.create n n in
  for i = 0 to n - 1 do
    if Random.State.int rng 4 > 0 then Triplet.add t i i 1.0
  done;
  for _ = 1 to Random.State.int rng (2 * n + 1) do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    Triplet.add t i j 1.0;
    if Random.State.bool rng then Triplet.add t j i 1.0
  done;
  if dense && n > 0 then begin
    let d = Random.State.int rng n in
    for j = 0 to n - 1 do
      Triplet.add t d j 1.0
    done
  end;
  Csc.R.of_entries n n (Triplet.entries t)

let is_permutation p n =
  let seen = Array.make n false in
  Array.length p = n
  && Array.for_all
       (fun i ->
         let fresh = i >= 0 && i < n && not seen.(i) in
         if fresh then seen.(i) <- true;
         fresh)
       p

let prop_min_degree_permutation =
  QCheck2.Test.make ~name:"min_degree is a deterministic permutation" ~count:200
    QCheck2.Gen.(triple (int_range 0 120) (int_range 0 100_000) bool)
    (fun (n, seed, dense) ->
      let m = random_pattern (Random.State.make [| seed |]) n ~dense in
      let p = Ordering.min_degree m.Csc.R.colptr m.Csc.R.rowind n in
      is_permutation p n && p = Ordering.min_degree m.Csc.R.colptr m.Csc.R.rowind n)

let test_min_degree_tiny () =
  Alcotest.(check (array int)) "n = 0" [||] (Ordering.min_degree [| 0 |] [||] 0);
  Alcotest.(check (array int)) "n = 1" [| 0 |] (Ordering.min_degree [| 0; 1 |] [| 0 |] 1);
  Alcotest.(check (array int)) "n = 1, empty" [| 0 |] (Ordering.min_degree [| 0; 0 |] [||] 1)

(* 5-point Laplacian of a k x k grid. *)
let grid_laplacian k =
  let n = k * k in
  let t = Triplet.create n n in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      let i = (r * k) + c in
      Triplet.add t i i 4.5;
      if c + 1 < k then begin
        Triplet.add t i (i + 1) (-1.0);
        Triplet.add t (i + 1) i (-1.0)
      end;
      if r + 1 < k then begin
        Triplet.add t i (i + k) (-1.0);
        Triplet.add t (i + k) i (-1.0)
      end
    done
  done;
  Csc.of_triplet t

let test_min_degree_fill_on_grids () =
  for k = 10 to 40 do
    let m = grid_laplacian k in
    let fill o = Sparse_lu.R.nnz (Sparse_lu.R.factorize ~ordering:o m) in
    let md = fill Ordering.Min_degree and rcm = fill Ordering.Rcm in
    if md > rcm then Alcotest.failf "%dx%d grid: min_degree fill %d > rcm fill %d" k k md rcm
  done

let test_given_must_be_permutation () =
  let m = laplacian_like ~seed:3 6 in
  let m = Csc.of_triplet m in
  let reject name p =
    match Ordering.compute (Ordering.Given p) m.Csc.R.colptr m.Csc.R.rowind 6 with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  reject "repeated index" [| 0; 1; 2; 2; 4; 5 |];
  reject "out of range" [| 0; 1; 2; 3; 4; 6 |];
  reject "negative" [| 0; 1; 2; 3; -1; 5 |];
  reject "short" [| 0; 1; 2; 3; 4 |];
  let p = [| 5; 3; 1; 0; 2; 4 |] in
  Alcotest.(check (array int)) "a permutation passes" p
    (Ordering.compute (Ordering.Given p) m.Csc.R.colptr m.Csc.R.rowind 6)

(* Allocation gate: the symbolic analysis and template factorisation
   allocate a bounded number of minor-heap words per state, and a replay
   a bounded number per call, so the boxed complex path cannot come
   back unnoticed. *)
let test_allocation_gate () =
  let sys = Pmtbr_circuit.Mna.stamp (Pmtbr_circuit.Rc_mesh.generate ~rows:24 ~cols:24 ~ports:4 ()) in
  let n = sys.Pmtbr_circuit.Mna.n in
  let p = Shifted.pencil ~e:sys.Pmtbr_circuit.Mna.e ~a:sys.Pmtbr_circuit.Mna.a in
  let w0 = Gc.minor_words () in
  let m = Shifted.prepare p ~template:{ Complex.re = 0.0; im = 1e9 } in
  let prepare_words = Gc.minor_words () -. w0 in
  if prepare_words >= 64.0 *. float_of_int n then
    Alcotest.failf "prepare allocated %.0f minor words for %d states (gate 64 per state)"
      prepare_words n;
  List.iter
    (fun w ->
      let w0 = Gc.minor_words () in
      let f = Shifted.refactor_z m { Complex.re = 0.0; im = w } in
      let words = Gc.minor_words () -. w0 in
      ignore (Sys.opaque_identity f);
      if words > 256.0 then Alcotest.failf "refactor_z allocated %.0f minor words" words)
    [ 1e8; 1e9; 1e10; 1e11 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sparse_lu;
      prop_orderings_preserve_solution;
      prop_refactorize_matches_fresh;
      prop_zreplay_matches_fresh;
      prop_zfactorize_bitwise;
      prop_min_degree_permutation;
    ]

let () =
  Alcotest.run "pmtbr_sparse"
    [
      ( "csc",
        [
          Alcotest.test_case "triplet roundtrip" `Quick test_triplet_roundtrip;
          Alcotest.test_case "mv" `Quick test_csc_mv;
          Alcotest.test_case "transpose" `Quick test_csc_transpose;
          Alcotest.test_case "add/scale" `Quick test_csc_add_scale;
          Alcotest.test_case "complex combination" `Quick test_complex_combination;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "permutations valid" `Quick test_orderings_are_permutations;
          Alcotest.test_case "rcm bandwidth on path" `Quick test_rcm_reduces_bandwidth;
          Alcotest.test_case "min degree n = 0, 1" `Quick test_min_degree_tiny;
          Alcotest.test_case "min degree fill <= rcm on grids" `Quick
            test_min_degree_fill_on_grids;
          Alcotest.test_case "given must be a permutation" `Quick test_given_must_be_permutation;
        ] );
      ( "lu",
        [
          Alcotest.test_case "natural" `Quick test_sparse_lu_natural;
          Alcotest.test_case "rcm" `Quick test_sparse_lu_rcm;
          Alcotest.test_case "min degree" `Quick test_sparse_lu_min_degree;
          Alcotest.test_case "vs dense" `Quick test_sparse_lu_vs_dense;
          Alcotest.test_case "singular raises" `Quick test_sparse_lu_singular;
          Alcotest.test_case "needs pivoting" `Quick test_sparse_lu_needs_pivoting;
          Alcotest.test_case "complex shifted" `Quick test_complex_sparse_lu;
          Alcotest.test_case "hermitian shifted" `Quick test_shifted_hermitian_solve;
          Alcotest.test_case "refactorize pattern mismatch" `Quick
            test_refactorize_pattern_mismatch;
          Alcotest.test_case "stale pivot fallback" `Quick test_stale_pivot_fallback;
          Alcotest.test_case "allocation gate" `Quick test_allocation_gate;
        ] );
      ("properties", props);
    ]
