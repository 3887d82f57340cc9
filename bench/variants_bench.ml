(* Wall-clock benchmark of the cross-Gramian compressed pencil.

   Both pipelines solve the same shifted systems; what differs is how the
   projection stage turns the sample blocks into a basis:

   - dense reference ([Cross_gramian.of_samples], timed from pre-built
     zr/zl blocks): a state-dimension QR of the joint block [zr zl]
     followed by a Schur solve at the *joint* column dimension;
   - compressed pencil ([Cross_gramian.of_caches], timed from
     pre-extended caches): the pencil S_R S_L^T (Q_L^T Q_R) assembled
     from the two small thin-QR factors, Schur at the *single-side*
     column dimension, and a lift of only the retained eigenvectors.

   The caches' incremental orthogonalisation runs at extend time inside
   the shared sampling layer (where adaptive runs amortise it batch by
   batch), so the timed region is exactly the per-reduction projection
   work each pipeline repeats.

   Invariants asserted on every pass (both modes):

   - the two pipelines agree on the dominant pencil eigenvalue
     magnitudes (they compute the nonzero spectrum of the same
     Z^R (Z^L)^T);
   - the merged cache counters certify one solve per point per side
     (solves == points);
   - [reduce_cached] is bitwise-identical across worker counts, and the
     adaptive variants (cross-Gramian and input-correlated) are
     bitwise-identical across batch sizes and worker counts when driven
     to full consumption.

   Emits BENCH_variants.json in the current directory.  Run from the
   repo root:

     dune exec bench/variants_bench.exe            # full run, 2x gate
     dune exec bench/variants_bench.exe -- --smoke # CI: tiny system,
                                                   # invariants only *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core

let now () = Unix.gettimeofday ()

let time_best ?(reps = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    if dt < !best then begin
      best := dt;
      result := Some r
    end
  done;
  (Option.get !result, !best)

let bitwise_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

(* Relative disagreement of the dominant eigenvalue magnitudes, over the
   part of the spectrum both pipelines resolve ( > 1e-6 of the largest ). *)
let eig_disagreement (a : Complex.t array) (b : Complex.t array) =
  let mags evs =
    let m = Array.map Complex.norm evs in
    Array.sort (fun x y -> compare y x) m;
    m
  in
  let ma = mags a and mb = mags b in
  let magmax = Float.max 1e-300 (Float.max ma.(0) mb.(0)) in
  let k = min (Array.length ma) (Array.length mb) in
  let worst = ref 0.0 in
  for i = 0 to k - 1 do
    if ma.(i) > 1e-6 *. magmax || mb.(i) > 1e-6 *. magmax then
      worst := Float.max !worst (Float.abs (ma.(i) -. mb.(i)) /. magmax)
  done;
  !worst

type record = {
  name : string;
  states : int;
  points : int;
  side_columns : int;
  rom_order : int;
  dense_wall_s : float;
  compressed_wall_s : float;
  speedup : float;
  solves : int;
  cache_points : int;
  eig_rel_diff : float;
}

let bench_case ~name ~sys ~points ~order ~reps =
  let n_pts = Array.length points in
  Printf.eprintf "[variants_bench] %s: %d states, %d points\n%!" name (Dss.order sys) n_pts;
  (* sampling layer, outside the timed region for both pipelines *)
  let zr = Zmat.build sys points in
  let zl = Zmat.build_left sys points in
  let right, left = Cross_gramian.make_caches sys points.(0) in
  Sample_cache.extend right points;
  Sample_cache.extend left points;
  let st = Sample_cache.merge_stats (Sample_cache.stats right) (Sample_cache.stats left) in
  if st.Sample_cache.solves <> st.Sample_cache.points then
    failwith
      (Printf.sprintf "%s: cache re-solved shifts (%d solves for %d points)" name
         st.Sample_cache.solves st.Sample_cache.points);
  let dense, dense_wall =
    time_best ~reps (fun () -> Cross_gramian.of_samples ~order sys ~zr ~zl ~samples:n_pts)
  in
  let compressed, compressed_wall =
    time_best ~reps (fun () ->
        Cross_gramian.of_caches ~order sys ~right ~left ~scale:1.0 ~samples:n_pts)
  in
  let eig_rel_diff =
    eig_disagreement dense.Cross_gramian.eigenvalues compressed.Cross_gramian.eigenvalues
  in
  if eig_rel_diff > 1e-4 then
    failwith
      (Printf.sprintf "%s: pencil spectra disagree (rel diff %.3e)" name eig_rel_diff);
  if dense.Cross_gramian.basis.Mat.cols <> compressed.Cross_gramian.basis.Mat.cols then
    failwith (name ^ ": model orders differ between dense and compressed");
  let r =
    {
      name;
      states = Dss.order sys;
      points = n_pts;
      side_columns = Sample_cache.columns right;
      rom_order = compressed.Cross_gramian.basis.Mat.cols;
      dense_wall_s = dense_wall;
      compressed_wall_s = compressed_wall;
      speedup = dense_wall /. compressed_wall;
      solves = st.Sample_cache.solves;
      cache_points = st.Sample_cache.points;
      eig_rel_diff;
    }
  in
  Printf.eprintf
    "[variants_bench]   dense %.4f s, compressed %.4f s: %.2fx (eig rel diff %.2e)\n%!"
    dense_wall compressed_wall r.speedup eig_rel_diff;
  r

(* Determinism of the cached pipelines: worker counts and batch splits
   must not change a single bit of the result.  [converge_tol = -1]
   forces the adaptive loops to full consumption so runs with different
   batch sizes end on the same sample set. *)
let determinism_checks ~sys ~points =
  let b1 = (Cross_gramian.reduce_cached ~workers:1 sys points).Cross_gramian.basis in
  let b3 = (Cross_gramian.reduce_cached ~workers:3 sys points).Cross_gramian.basis in
  if not (bitwise_equal b1 b3) then failwith "reduce_cached differs across worker counts";
  let adapt ~batch ~workers =
    (Cross_gramian.reduce_adaptive ~batch ~converge_tol:(-1.0) ~workers sys points)
      .Cross_gramian.basis
  in
  let a = adapt ~batch:4 ~workers:1 in
  if not (bitwise_equal a (adapt ~batch:7 ~workers:1)) then
    failwith "adaptive cross-Gramian differs across batch sizes";
  if not (bitwise_equal a (adapt ~batch:4 ~workers:3)) then
    failwith "adaptive cross-Gramian differs across worker counts";
  (* input-correlated: the rng stream is consumed in draw order, so batch
     boundaries and worker counts must not move a draw *)
  let inputs =
    Pmtbr_signal.Waveform.sample_matrix
      (Array.map
         (fun w t -> 1e-3 *. w t)
         (Pmtbr_signal.Waveform.dithered_square_bank
            ~rng:(Pmtbr_signal.Rng.create 11)
            ~ports:(Dss.inputs sys) ~period:1e-9 ~dither:0.1))
      ~t0:0.0 ~t1:4e-9 ~samples:200
  in
  let ic ~batch ~workers =
    let r, st =
      Input_correlated.reduce_adaptive_stats ~seed:5 ~batch ~converge_tol:(-1.0) ~workers sys
        ~inputs ~points ~max_draws:24
    in
    if st.Sample_cache.solves <> st.Sample_cache.points then
      failwith "input-correlated cache re-solved shifts";
    r.Input_correlated.basis
  in
  let i1 = ic ~batch:3 ~workers:1 in
  if not (bitwise_equal i1 (ic ~batch:8 ~workers:1)) then
    failwith "adaptive input-correlated differs across batch sizes";
  if not (bitwise_equal i1 (ic ~batch:3 ~workers:2)) then
    failwith "adaptive input-correlated differs across worker counts";
  Printf.eprintf "[variants_bench] determinism OK\n%!"

let json_of_records records =
  Util.json_object @@ fun buf ->
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"name\": %S,\n" r.name);
      Buffer.add_string buf (Printf.sprintf "      \"states\": %d,\n" r.states);
      Buffer.add_string buf (Printf.sprintf "      \"points\": %d,\n" r.points);
      Buffer.add_string buf (Printf.sprintf "      \"side_columns\": %d,\n" r.side_columns);
      Buffer.add_string buf (Printf.sprintf "      \"rom_order\": %d,\n" r.rom_order);
      Buffer.add_string buf (Printf.sprintf "      \"dense_wall_s\": %.6f,\n" r.dense_wall_s);
      Buffer.add_string buf
        (Printf.sprintf "      \"compressed_wall_s\": %.6f,\n" r.compressed_wall_s);
      Buffer.add_string buf (Printf.sprintf "      \"speedup\": %.3f,\n" r.speedup);
      Buffer.add_string buf (Printf.sprintf "      \"solves\": %d,\n" r.solves);
      Buffer.add_string buf (Printf.sprintf "      \"cache_points\": %d,\n" r.cache_points);
      Buffer.add_string buf (Printf.sprintf "      \"eig_rel_diff\": %.3e\n" r.eig_rel_diff);
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n"

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let records =
    if smoke then begin
      (* CI smoke: tiny symmetric-port mesh (the cross-Gramian needs
         inputs = outputs); invariants on every pass, no timing gate *)
      let sys = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows:8 ~cols:8 ~ports:2 ()) in
      let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:16 in
      let r = bench_case ~name:"rc-mesh-8x8-smoke" ~sys ~points:pts ~order:10 ~reps:1 in
      determinism_checks ~sys ~points:pts;
      [ r ]
    end
    else begin
      let sys = Dss.of_netlist (Pmtbr_circuit.Rc_mesh.generate ~rows:36 ~cols:36 ~ports:2 ()) in
      let pts = Sampling.points (Sampling.Uniform { w_max = 2e10 }) ~count:48 in
      let r = bench_case ~name:"rc-mesh-36x36" ~sys ~points:pts ~order:14 ~reps:3 in
      determinism_checks ~sys ~points:(Array.sub pts 0 16);
      [ r ]
    end
  in
  let json = json_of_records records in
  Util.write_json ~smoke ~file:"BENCH_variants.json" json;
  if not smoke then begin
    (* acceptance gate: the compressed pencil must be >= 2x the dense
       state-dimension QR on the projection stage *)
    let r = List.hd records in
    if r.speedup < 2.0 then begin
      Printf.eprintf "[variants_bench] FAIL: %s speedup %.2fx < 2x\n%!" r.name r.speedup;
      exit 1
    end;
    Printf.eprintf "[variants_bench] OK: %s speedup %.2fx\n%!" r.name r.speedup
  end
  else Printf.eprintf "[variants_bench] smoke OK\n%!"
