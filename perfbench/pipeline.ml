(* The one-shot reduction pipelines, netlist text in, ROM out.

   Each comes twice: [*_entry] calls the library's public entry point
   exactly as [pmtbr reduce] does (the untraced, end-to-end timing), and
   [*_traced] rebuilds the same pipeline from the public calls beneath
   that entry point, one span per layer.  The rebuild must produce the
   bitwise-identical ROM ([Check.digest]), which is what proves the traced
   run measures the same program. *)

open Pmtbr_la
open Pmtbr_lti
open Pmtbr_core
module Spice = Pmtbr_circuit.Spice

type flat = {
  band : float;  (** uniform sampling of [0, band] rad/s *)
  count : int;  (** sample points *)
  order : int;  (** reduced order *)
}

type hier = {
  h_band : float;
  h_count : int;
  parts : int;
  tol : float;  (** per-subdomain singular-value tail tolerance *)
  interface_tol : float;  (** second-pass interface compression *)
}

let points_of ~band ~count = Sampling.points (Sampling.Uniform { w_max = band }) ~count

let parse text = Spice.netlist (Spice.parse_string text)

(* Realified sample columns per right-hand-side column: two per complex
   point and one per real point, as [Sample_cache.columns] counts them. *)
let per_rhs_column pts =
  Array.fold_left (fun n (p : Sampling.point) -> n + if p.s.Complex.im = 0.0 then 1 else 2) 0 pts

let flat_columns (c : flat) ~ports = ports * per_rhs_column (points_of ~band:c.band ~count:c.count)

(* Summed over the parts; each part samples its ports and its coupling
   columns (the part's [rhs]). *)
let hier_columns (c : hier) text =
  let pt = Partition.split ~parts:c.parts (parse text) in
  let per = per_rhs_column (points_of ~band:c.h_band ~count:c.h_count) in
  Array.fold_left (fun n (p : Partition.part) -> n + (per * p.rhs.Mat.cols)) 0 pt.Partition.parts

(* --- flat PMTBR through the sample cache ([pmtbr reduce --stats]) --- *)

(* Each pipeline first sets the dense-kernel pool as the CLI's [-j] does,
   so one worker setting covers the solve stage and the dense kernels;
   [None] is the default, one per recommended domain. *)
let flat_entry ?workers (c : flat) text =
  Par_kernel.set_default_workers workers;
  let sys = Dss.of_netlist (parse text) in
  let pts = points_of ~band:c.band ~count:c.count in
  let r, _ = Pmtbr.reduce_stats ~order:c.order ?workers sys pts in
  r.Pmtbr.rom

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* process CPU seconds, all domains *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [Pmtbr.of_cache]'s order choice: the requested order, never below
   numerical noise. *)
let capped_order ~sigma ~order =
  let q = Pmtbr.choose_order ~sigma ~order () in
  let smax = Float.max sigma.(0) 1e-300 in
  let rec cap k = if k <= 1 then 1 else if sigma.(k - 1) > 1e-14 *. smax then k else cap (k - 1) in
  cap q

let flat_traced tr ~job ?workers (c : flat) text =
  Par_kernel.set_default_workers workers;
  let span ?parent name f = Span.with_ (Some tr) ~job ?parent name f in
  let count name v = Span.count (Some tr) ~job name v in
  let nworkers = match workers with Some w -> w | None -> Shift_engine.default_workers () in
  span "job" (fun root ->
      let parsed = span ~parent:root "spice.parse" (fun _ -> Spice.parse_string text) in
      count "spice.bytes" (float_of_int (String.length text));
      let sys = span ~parent:root "mna.stamp" (fun _ -> Dss.of_netlist (Spice.netlist parsed)) in
      let pts = points_of ~band:c.band ~count:c.count in
      let cache =
        span ~parent:root "sample_cache.extend" (fun id ->
            let w0 = minor_words () and c0 = cpu_s () and t0 = Unix.gettimeofday () in
            let ms =
              span ~parent:id "shifted.symbolic" (fun _ ->
                  Dss.multi_shift ~template:pts.(0).Sampling.s sys)
            in
            let symbolic = Unix.gettimeofday () -. t0 in
            let cache = Sample_cache.create ?workers ~ms sys in
            Sample_cache.extend cache pts;
            let wall = Unix.gettimeofday () -. t0 and words = minor_words () -. w0 in
            let st = Sample_cache.stats cache in
            count "shift_engine.factor_s" st.Sample_cache.factor_s;
            count "shift_engine.solve_s" st.Sample_cache.solve_s;
            count "shift_engine.solves" (float_of_int st.Sample_cache.solves);
            count "shift_engine.utilisation"
              (Float.min 1.0 ((cpu_s () -. c0) /. (float_of_int nworkers *. wall)));
            count "shift_engine.minor_words" (words /. float_of_int (max 1 st.Sample_cache.solves));
            count "sample_cache.minor_words" words;
            count "sample_cache.columns" (float_of_int st.Sample_cache.columns);
            (* the QR share: extend wall minus the symbolic analysis and
               the engine's per-worker busy time (exact at one worker) *)
            count "sample_cache.qr_s"
              (wall -. symbolic
              -. ((st.Sample_cache.factor_s +. st.Sample_cache.solve_s) /. float_of_int nworkers));
            cache)
      in
      span ~parent:root "pmtbr.finish" (fun id ->
          let small =
            span ~parent:id "sample_cache.small_factor" (fun _ ->
                Sample_cache.small_factor cache ~scale:1.0)
          in
          let { Svd.u; sigma; _ } =
            span ~parent:id "svd.decompose" (fun _ ->
                let w0 = minor_words () in
                let d = Svd.decompose ?workers small in
                count "svd.minor_words" (minor_words () -. w0);
                count "svd.cols" (float_of_int small.Mat.cols);
                d)
          in
          let q = capped_order ~sigma ~order:c.order in
          let basis =
            span ~parent:id "sample_cache.apply_q" (fun _ ->
                Sample_cache.apply_q cache (Mat.sub_cols u 0 q))
          in
          span ~parent:id "dss.project" (fun _ -> Dss.project_congruence sys basis)))

(* --- hierarchical reduction ([pmtbr reduce --method hier]) --- *)

let hier_entry ?workers (c : hier) text =
  Par_kernel.set_default_workers workers;
  let rom, _ =
    Hier_reduce.reduce_stats ~tol:c.tol ~interface_tol:c.interface_tol ?workers ~parts:c.parts
      (parse text) (points_of ~band:c.h_band ~count:c.h_count)
  in
  rom

(* [Hier_reduce.reduce_partitioned], rebuilt: per-part jobs fan out over
   a [Scheduler] pool sized as the library sizes it, each job recording
   its own sample / basis / project spans under the fan-out span. *)
let hier_traced tr ~job ?workers (c : hier) text =
  Par_kernel.set_default_workers workers;
  let span ?parent name f = Span.with_ (Some tr) ~job ?parent name f in
  let count name v = Span.count (Some tr) ~job name v in
  span "job" (fun root ->
      (* the partitioner stamps each part itself: no global MNA stamp *)
      let nl = span ~parent:root "spice.parse" (fun _ -> parse text) in
      count "spice.bytes" (float_of_int (String.length text));
      let pt = span ~parent:root "partition.split" (fun _ -> Partition.split ~parts:c.parts nl) in
      let pts = points_of ~band:c.h_band ~count:c.h_count in
      let k = Array.length pt.Partition.parts in
      let requested = match workers with Some w -> w | None -> Par_kernel.default_workers () in
      let nw = max 1 (min (min requested (Domain.recommended_domain_count ())) k) in
      let subs = Array.make k None and walls = Array.make k 0.0 in
      let blocks =
        span ~parent:root "hier_reduce.fanout" (fun fan ->
            let run i =
              let t0 = Unix.gettimeofday () in
              let part = pt.Partition.parts.(i) in
              let sub =
                if part.Partition.rhs.Mat.cols = 0 then Hier_reduce.reduce_part ~tol:c.tol part pts
                else
                  let cache =
                    span ~parent:fan "hier_reduce.sample_part" (fun _ ->
                        Hier_reduce.sample_part part pts)
                  in
                  count "sample_cache.columns" (float_of_int (Sample_cache.columns cache));
                  span ~parent:fan "hier_reduce.basis_of_part" (fun _ ->
                      Hier_reduce.basis_of_part ~tol:c.tol part cache ~samples:c.h_count ())
              in
              let b =
                span ~parent:fan "hier_reduce.project_part" (fun _ ->
                    Hier_reduce.project_part pt i sub.Hier_reduce.basis)
              in
              walls.(i) <- Unix.gettimeofday () -. t0;
              subs.(i) <- Some (sub, b)
            in
            if nw <= 1 then for i = 0 to k - 1 do run i done
            else begin
              let pool = Scheduler.create ~workers:nw run in
              for i = 0 to k - 1 do
                ignore (Scheduler.submit pool i)
              done;
              Scheduler.stop pool
            end;
            Array.map (function Some sb -> sb | None -> failwith "hier: a part never ran") subs)
      in
      let mean = Array.fold_left ( +. ) 0.0 walls /. float_of_int k in
      count "hier_reduce.part_imbalance" (Array.fold_left Float.max 0.0 walls /. mean);
      let solves = Array.fold_left (fun n ((s : Hier_reduce.sub), _) -> n + s.solves) 0 blocks in
      count "hier_reduce.solves" (float_of_int solves);
      let rom =
        span ~parent:root "hier_reduce.assemble" (fun _ ->
            Hier_reduce.assemble pt (Array.map snd blocks))
      in
      let rom, kept =
        span ~parent:root "hier_reduce.compress" (fun _ ->
            Hier_reduce.compress_interface ~workers:nw ~tol:c.interface_tol pt rom pts)
      in
      count "hier_reduce.interface" (float_of_int (Array.length pt.Partition.interface));
      count "hier_reduce.interface_kept" (float_of_int kept);
      rom)
