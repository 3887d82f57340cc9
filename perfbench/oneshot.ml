(* The one-shot workloads: one netlist per run, reduced from its text
   back to back for the measured phase, the way [pmtbr reduce] would be
   called by an extraction flow. *)

open Pmtbr_lti
open Report

type t = {
  name : string;
  make : seed:int -> Gen.netlist;  (** the workload's netlist *)
  warm : Gen.netlist;  (** small network of the same kind, for warm-up *)
  entry : ?workers:int -> string -> Dss.t;
  traced : Span.t -> job:int -> ?workers:int -> string -> Dss.t;
  columns : Gen.netlist -> int;  (** realified sample columns of a job *)
  band : float;  (** the check grid ends here *)
  points : int;
  target : float;  (** worst in-band relative error a ROM may have *)
  workers : int option;  (** [-j] of the end-to-end run; [None] is the CLI default *)
}

(* The flat workloads run end to end at one worker: at two, the per-call
   domain pools of the solve and SVD stages make run-to-run times
   bimodal on a shared two-core host (see NOTES.md).  Their traced runs
   still report both worker counts. *)
let flat ~name ~make ~warm ~(cfg : Pipeline.flat) ~target =
  {
    name;
    make;
    warm;
    entry = (fun ?workers text -> Pipeline.flat_entry ?workers cfg text);
    traced = (fun tr ~job ?workers text -> Pipeline.flat_traced tr ~job ?workers cfg text);
    columns = (fun nl -> Pipeline.flat_columns cfg ~ports:nl.Gen.ports);
    band = cfg.Pipeline.band;
    points = cfg.Pipeline.count;
    target;
    workers = Some 1;
  }

let hier_cfg =
  { Pipeline.h_band = Gen.mesh_band; h_count = 6; parts = 4; tol = 1e-4; interface_tol = 1e-4 }

let workloads =
  [
    flat ~name:"mesh-flat"
      ~make:(fun ~seed -> Gen.rc_mesh ~seed ~rows:80 ~cols:80 ~ports:4)
      ~warm:(Gen.rc_mesh ~seed:0 ~rows:20 ~cols:20 ~ports:4)
      ~cfg:{ Pipeline.band = Gen.mesh_band; count = 16; order = 20 }
      ~target:1e-3;
    flat ~name:"substrate-ports"
      ~make:(fun ~seed -> Gen.substrate ~seed ~ports:16 ~internal:150)
      ~warm:(Gen.substrate ~seed:0 ~ports:4 ~internal:40)
      ~cfg:{ Pipeline.band = Gen.substrate_band; count = 8; order = 48 }
      ~target:1e-3;
    {
      name = "mesh-hier";
      make = (fun ~seed -> Gen.rc_mesh ~seed ~rows:8 ~cols:800 ~ports:16);
      warm = Gen.rc_mesh ~seed:0 ~rows:8 ~cols:100 ~ports:4;
      entry = (fun ?workers text -> Pipeline.hier_entry ?workers hier_cfg text);
      traced = (fun tr ~job ?workers text -> Pipeline.hier_traced tr ~job ?workers hier_cfg text);
      columns = (fun nl -> Pipeline.hier_columns hier_cfg nl.Gen.text);
      band = Gen.mesh_band;
      points = hier_cfg.Pipeline.h_count;
      target = 1e-5;
      workers = None;
    };
  ]

(* Set-up: generate the input text and warm the pipeline on a small
   network of the same kind. *)
let setup w ~seed =
  let nl = w.make ~seed in
  ignore (w.entry ?workers:w.workers w.warm.Gen.text);
  nl

let fields w ~seed (nl : Gen.netlist) rom =
  [ ("workload", w.name); ("seed", string_of_int seed); ("states", string_of_int nl.Gen.states);
    ("ports", string_of_int nl.Gen.ports); ("elements", string_of_int nl.Gen.elements);
    ("points", string_of_int w.points); ("sample_columns", string_of_int (w.columns nl));
    ("rom_order", string_of_int (Dss.order rom));
    ("target", Printf.sprintf "%g" w.target) ]

let accuracy_note w err =
  if err > w.target then [ Printf.sprintf "rom_err %.3e above target %.1e" err w.target ] else []

let end_to_end w ~seed ~seconds =
  let nl, setups = repeat_setup (fun () -> setup w ~seed) in
  let runs, wall = repeat_for ~seconds (fun () -> w.entry ?workers:w.workers nl.Gen.text) in
  (* the reductions' peak, read before the accuracy check adds its own *)
  let rss_mb = peak_rss_mb (Unix.getpid ()) in
  let times = List.map snd runs in
  let rom = fst (List.hd runs) in
  let sys = Dss.of_netlist (Pipeline.parse nl.Gen.text) in
  let err, check_s =
    timed (fun () -> Check.in_band ?workers:w.workers sys rom ~lo:0.0 ~hi:w.band)
  in
  let drift =
    Check.digest_mismatches (List.map (fun (r, _) -> ("rom", Check.digest r)) runs) <> []
  in
  let notes =
    accuracy_note w err
    @ if drift then [ "ROM digest differs between repeats of one netlist" ] else []
  in
  let attempted = List.length runs in
  let failed = if notes = [] then 0 else attempted in
  let workers = match w.workers with Some n -> string_of_int n | None -> "default" in
  record (fields w ~seed nl rom @ host_fields ~workers);
  print_unbounded ~check_s ~times ~attempted ~failed ();
  print_result
    {
      metrics =
        [ metric "setup_s" (Stats.median setups) "s";
          metric "job_p50_s" (Stats.median times) "s";
          metric "jobs_per_s" (float_of_int attempted /. wall) "1/s";
          metric "rom_err" err "1";
          metric "rom_order" (float_of_int (Dss.order rom)) "states";
          metric "peak_rss_mb" rss_mb "MB" ];
      attempted;
      failed;
      notes;
    }

(* Checks run as job [check_job] of a trace, apart from the reductions. *)
let check_job = 1_000_000

(* Three passes of [seconds / 3]: traced at the default worker count,
   traced at one worker, untraced at the default.  Every traced ROM must
   carry the untraced entry point's digest. *)
let traced w ~seed ~seconds =
  let third = seconds /. 3.0 in
  let nl = setup w ~seed in
  let sys = Dss.of_netlist (Pipeline.parse nl.Gen.text) in
  let origin = now () in
  let pass ?workers () =
    let tr = Span.create () in
    let job = ref 0 in
    let runs, _ =
      repeat_for ~seconds:third (fun () ->
          incr job;
          w.traced tr ~job:!job ?workers nl.Gen.text)
    in
    let err =
      Span.with_ (Some tr) ~job:check_job "check" (fun parent ->
          Check.in_band ~tr ~job:check_job ~parent ?workers sys (fst (List.hd runs)) ~lo:0.0
            ~hi:w.band)
    in
    (tr, runs, err, ("trace.job_p50_s", Stats.median (List.map snd runs)) :: layer_values tr)
  in
  let tr, runs, err, main = pass () in
  let tr1, runs1, _, w1 = pass ~workers:1 () in
  let plain, _ = repeat_for ~seconds:third (fun () -> w.entry nl.Gen.text) in
  let reference = Check.digest (fst (List.hd plain)) in
  let answers = List.map (fun (rom, _) -> ("rom", Check.digest rom)) (plain @ runs @ runs1) in
  let mismatched = Check.digest_mismatches ~reference:(fun _ -> Some reference) answers <> [] in
  let notes =
    (if mismatched then [ "traced ROM digest differs from the untraced entry point's" ] else [])
    @ accuracy_note w err
  in
  let attempted = List.length answers in
  record
    (fields w ~seed nl (fst (List.hd plain))
    @ host_fields ~workers:"default,1"
    @ [ ("rom_digest", reference); ("traced_digests_equal", string_of_bool (not mismatched)) ]);
  print_self_times "default workers" tr;
  print_self_times "1 worker" tr1;
  let tag = Printf.sprintf "%s-seed%d" w.name seed in
  write_trace tr ~origin ~tag;
  write_trace tr1 ~origin ~tag:(tag ^ "-w1");
  let untraced_p50 = Stats.median (List.map snd plain) in
  print_result
    {
      metrics = layer_metrics ~main ~w1 ~untraced_p50;
      attempted;
      failed = (if notes = [] then 0 else attempted);
      notes;
    }
