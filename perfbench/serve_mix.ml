(* serve-mix: a [pmtbr serve] daemon with a store budget below its working
   set, driven by a closed loop of two connections over the seeded job
   stream of [Gen.serve_stream]. *)

open Pmtbr_lti
open Report
module Protocol = Pmtbr_serve.Protocol
module Store = Pmtbr_serve.Store

let daemon_exe = "_build/default/bin/pmtbr_cli.exe"
let store_mb = 8
let stream_length = 20_000

(* Job keys re-run cold in this process and checked for accuracy: the
   distinct keys among the first [checked_prefix] stream positions, and
   the first key of every kind of job, so that each method is covered. *)
let checked_prefix = 32

(* Accuracy a served ROM must reach, by method and tolerance.  A hier
   ROM must match the full model to its truncation tolerance, which is
   what [Hier_reduce] promises. *)
let target (s : Gen.spec) =
  match s.Gen.meth with
  | Protocol.Hier -> s.Gen.tol
  | Protocol.Tbr_passive -> 1e-4
  | Protocol.Pmtbr | Protocol.Fs_pmtbr -> 1e3 *. s.Gen.tol

let network ~seed (s : Gen.spec) = Gen.serve_network ~seed s.Gen.net

(* Answers that came back [ok], with their responses. *)
let ok_answers answers =
  List.filter_map
    (fun (a : Daemon.answer) -> Option.map (fun r -> (a, r)) (Daemon.ok_response a.result))
    answers

let tier r = Daemon.field r "tier"
let server_wall r = float_of_string (Daemon.field r "wall_us") /. 1e6

(* An estimate of the working set the store would hold with no budget,
   after the store's cost model (network text and index, solved sample
   columns, ROMs) but simpler: it has no canonical text, partition or
   sub-sample tiers.  The measured evidence that the budget is below the
   working set is the Stats response's [evictions]. *)
let working_set_mb_est ~seed answers =
  let seen = Hashtbl.create 64 in
  let add key cost = if not (Hashtbl.mem seen key) then Hashtbl.add seen key cost in
  List.iter
    (fun ((a : Daemon.answer), r) ->
      let s = a.spec in
      let nl = network ~seed s in
      let n = float_of_int nl.Gen.states in
      add (Printf.sprintf "net %d" s.Gen.net)
        (float_of_int (String.length nl.Gen.text) +. (64.0 *. n) +. 1024.0);
      if s.Gen.meth = Protocol.Pmtbr then begin
        let columns = float_of_int (2 * s.Gen.samples * nl.Gen.ports) in
        add
          (Printf.sprintf "samples %d %g:%g" s.Gen.net (fst s.Gen.band) (snd s.Gen.band))
          ((24.0 *. n *. columns) +. 4096.0)
      end;
      let q = float_of_string (Daemon.field r "order") in
      add ("rom " ^ Gen.spec_key s) ((32.0 *. q *. q) +. 1024.0))
    (ok_answers answers);
  Hashtbl.fold (fun _ c acc -> acc +. c) seen 0.0 /. (1024.0 *. 1024.0)

(* Warm-up job: a tiny network outside the stream. *)
let warm_job =
  let spec =
    { Gen.kind = Gen.Unseen; net = -1; meth = Protocol.Pmtbr; band = Gen.serve_bands.(0);
      tol = 1e-6; samples = 16; export = false }
  in
  let netlist = (Gen.rc_mesh ~seed:0 ~rows:8 ~cols:8 ~ports:2).Gen.text in
  Protocol.Reduce (Gen.to_job spec ~netlist)

(* Set-up: start the daemon, open and ping the connections, run the
   warm-up job. *)
let setup ~workers ~connections ~tag =
  ensure_out_dir ();
  let socket = Filename.concat out_dir (Printf.sprintf "serve-%d-%s.sock" (Unix.getpid ()) tag) in
  let d = Daemon.start ~exe:daemon_exe ~socket ~workers ~store_mb ~connections in
  ignore (Daemon.require "warm-up job" (Pmtbr_serve.Client.request d.Daemon.conns.(0) warm_job));
  d

type pass = {
  answers : Daemon.answer list;
  wall : float;  (** start of the loop to the last reply *)
  stat : string -> float;  (** the Stats response, by field *)
  rss_mb : float;  (** the daemon's peak resident set *)
}

(* Drive an already set-up daemon for [seconds], then stop it. *)
let drive d ~seed ~seconds ~stream =
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let answers, wall = Daemon.drive d ~seed ~stream ~seconds in
      let stat = Daemon.stats d in
      { answers; wall; stat; rss_mb = peak_rss_mb d.Daemon.pid })

type verdict = {
  failed : int;
  notes : string list;
  worst_err : float;  (** over the cold-checked keys *)
  order : int;  (** summed over the cold-checked keys *)
  recomputed : int;  (** answers computed again for a key already answered *)
  checked : (Protocol.meth * int * float) list;
      (** keys checked cold and their worst error, per method *)
  columns : int;
      (** widest PMTBR small factor among them: one singular value per
          realified sample column, as the pool networks have more states *)
}

(* A key's cold reference: its outcome in a fresh in-process store and,
   when it succeeded, the worst in-band error of its ROM. *)
type cold = { result : (Store.outcome, string) Stdlib.result; err : float }

let run_cold ~seed (s : Gen.spec) =
  let text = (network ~seed s).Gen.text in
  let Protocol.{ meth; band; tol; order; samples; partition; interface_tol; _ } =
    Gen.to_job s ~netlist:text
  in
  let result =
    Store.reduce (Store.create ()) ~netlist:text ~meth ~band ?tol ?order ?partition
      ?interface_tol ~samples ()
  in
  let err =
    match result with
    | Error _ -> 0.0
    | Ok o ->
        let sys = Dss.of_netlist (Pipeline.parse text) in
        Check.in_band sys o.Store.rom ~lo:(fst s.Gen.band) ~hi:(snd s.Gen.band)
  in
  { result; err }

(* The specs to check cold, by key: see [checked_prefix]. *)
let cold_specs ok =
  let chosen = Hashtbl.create 16 and kinds = Hashtbl.create 8 in
  List.iter
    (fun ((a : Daemon.answer), _) ->
      let first_of_kind = not (Hashtbl.mem kinds a.spec.Gen.kind) in
      Hashtbl.replace kinds a.spec.Gen.kind ();
      if a.idx < checked_prefix || first_of_kind then
        Hashtbl.replace chosen (Gen.spec_key a.spec) a.spec)
    ok;
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) chosen [] |> List.sort compare

(* The output checks of a pass.  Every key answers with one digest (warm
   == cold, answers recomputed after eviction included).  Each key of
   [cold_specs] is run cold in a fresh in-process store: its digest must
   equal the daemon's, and its ROM must meet the accuracy target.  Cold
   references are kept in [cache], keyed by job key, across passes. *)
let verify ~seed ~cache (p : pass) =
  let ok = ok_answers p.answers in
  let errors = List.length p.answers - List.length ok in
  let key (a : Daemon.answer) = Gen.spec_key a.spec in
  let seen = Hashtbl.create 64 in
  let recomputed =
    List.fold_left
      (fun n (a, r) ->
        let again = Hashtbl.mem seen (key a) in
        Hashtbl.replace seen (key a) ();
        if again && tier r <> "rom-hit" then n + 1 else n)
      0 ok
  in
  let cold =
    List.map
      (fun (k, s) ->
        match Hashtbl.find_opt cache k with
        | Some c -> (k, s, c)
        | None ->
            let c = run_cold ~seed s in
            Hashtbl.add cache k c;
            (k, s, c))
      (cold_specs ok)
  in
  let reference k =
    List.find_map
      (fun (k', _, c) -> match c.result with Ok o when k' = k -> Some o.Store.digest | _ -> None)
      cold
  in
  let digests = List.map (fun (a, r) -> (key a, Daemon.field r "digest")) ok in
  let bad_keys = Check.digest_mismatches ~reference digests in
  let accuracy =
    List.filter_map
      (fun (k, s, c) ->
        match c.result with Error _ -> None | Ok o -> Some (k, s, c.err, o.Store.order))
      cold
  in
  let missed =
    List.filter_map
      (fun (k, s, err, _) -> if err > target s then Some (k, err) else None)
      accuracy
  in
  let cold_errors =
    List.filter_map
      (fun (k, _, c) -> match c.result with Error e -> Some (k ^ ": " ^ e) | Ok _ -> None)
      cold
  in
  let failing (a, _) = List.mem (key a) bad_keys || List.mem_assoc (key a) missed in
  let per_method m =
    let mine = List.filter (fun (_, s, _) -> s.Gen.meth = m) cold in
    (m, List.length mine, List.fold_left (fun acc (_, _, c) -> Float.max acc c.err) 0.0 mine)
  in
  {
    failed = errors + List.length (List.filter failing ok);
    notes =
      List.map (fun k -> "digest mismatch for job key " ^ k) bad_keys
      @ List.map (fun (k, e) -> Printf.sprintf "job key %s: error %.3e above target" k e) missed
      @ List.map (fun e -> "cold reference failed: " ^ e) cold_errors
      @ if errors > 0 then [ Printf.sprintf "%d jobs answered with an error" errors ] else [];
    worst_err = List.fold_left (fun acc (_, _, e, _) -> Float.max acc e) 0.0 accuracy;
    order = List.fold_left (fun acc (_, _, _, q) -> acc + q) 0 accuracy;
    recomputed;
    checked = List.map per_method [ Protocol.Pmtbr; Protocol.Tbr_passive; Protocol.Hier ];
    columns =
      List.fold_left
        (fun n (_, (s : Gen.spec), c) ->
          match c.result with
          | Ok o when s.Gen.meth = Protocol.Pmtbr -> max n (Array.length o.Store.singular_values)
          | _ -> n)
        0 cold;
  }

(* Per method: keys checked cold, and their worst in-band error; and
   the sample columns of a PMTBR job. *)
let checked_fields v =
  [ ( "keys_checked_cold",
      String.concat ","
        (List.map
           (fun (m, n, e) -> Printf.sprintf "%s:%d(err<=%.2e)" (Protocol.meth_name m) n e)
           v.checked) ); ("sample_columns_pmtbr", string_of_int v.columns) ]

let base_fields ~seed =
  [ ("workload", "serve-mix"); ("seed", string_of_int seed);
    ("pool_flat", Printf.sprintf "%dx16x16/256-states/4-ports" Gen.pool_flat);
    ("pool_hier", Printf.sprintf "%dx4x96/384-states/4-ports" Gen.pool_hier);
    ("elements_per_flat_network", string_of_int (Gen.serve_network ~seed 0).Gen.elements);
    ("points", "16,hier:6"); ("store_mb", string_of_int store_mb) ]

let rtts (p : pass) = List.map (fun (a : Daemon.answer) -> a.rtt_s) p.answers

(* Jobs drawn per kind, answers per tier, and which tiers set the
   median and the tail: the tier of the median job by round trip, and
   the tiers of the jobs past the tail percentile. *)
let mix_fields (p : pass) =
  let count f l = List.length (List.filter f l) in
  let kinds = [ Gen.Repeat; Gen.Retol; Gen.New_band; Gen.Unseen; Gen.Export; Gen.Hier_job ] in
  let ok = ok_answers p.answers in
  let tiers = List.sort_uniq compare (List.map (fun (_, r) -> tier r) ok) in
  let by_rtt = List.sort (fun ((a : Daemon.answer), _) (b, _) -> compare a.rtt_s b.rtt_s) ok in
  let tier_counts l =
    String.concat ","
      (List.filter_map
         (fun t ->
           match count (fun (_, r) -> tier r = t) l with
           | 0 -> None
           | n -> Some (Printf.sprintf "%s:%d" t n))
         tiers)
  in
  let attribution =
    match by_rtt with
    | [] -> []
    | _ ->
        let at_p50 = tier (snd (List.nth by_rtt ((List.length by_rtt - 1) / 2))) in
        ("p50_tier", at_p50)
        ::
        (match Stats.tail (List.map (fun ((a : Daemon.answer), _) -> a.rtt_s) by_rtt) with
        | None -> []
        | Some t ->
            [ ( Printf.sprintf "tiers_beyond_p%g" t.Stats.pct,
                tier_counts (List.filteri (fun i _ -> i >= t.Stats.n - t.Stats.beyond) by_rtt) ) ])
  in
  List.map
    (fun k ->
      ( "jobs_" ^ Gen.kind_name k,
        string_of_int (count (fun (a : Daemon.answer) -> a.spec.Gen.kind = k) p.answers) ))
    kinds
  @ [ ("tiers", tier_counts ok) ]
  @ attribution

let end_to_end ~seed ~seconds =
  let stream = Gen.serve_stream ~length:stream_length in
  (* Several set-ups; the last daemon serves the measured phase.  Each is
     stopped before the next starts: a daemon started later would inherit
     this process's client sockets, and an earlier daemon would never see
     those connections close. *)
  let n = ref 0 in
  let d, setups =
    repeat_setup ~discard:Daemon.stop (fun () ->
        incr n;
        setup ~workers:2 ~connections:2 ~tag:(string_of_int !n))
  in
  let p = drive d ~seed ~seconds ~stream in
  let v = verify ~seed ~cache:(Hashtbl.create 64) p in
  let attempted = List.length p.answers in
  let completed = List.length (ok_answers p.answers) in
  record
    (base_fields ~seed @ mix_fields p
    @ [ ("connections", "2");
        ("working_set_mb_est", Printf.sprintf "%.1f" (working_set_mb_est ~seed p.answers));
        ("evictions", Printf.sprintf "%.0f" (p.stat "evictions"));
        ("answers_recomputed", string_of_int v.recomputed) ]
    @ checked_fields v
    @ host_fields ~workers:"2");
  print_unbounded ~times:(rtts p) ~attempted ~failed:v.failed ();
  print_result
    {
      metrics =
        [ metric "setup_s" (Stats.median setups) "s";
          metric "job_p50_s" (Stats.median (rtts p)) "s";
          metric "jobs_per_s" (float_of_int completed /. p.wall) "1/s";
          metric "rom_err" v.worst_err "1";
          metric "rom_order" (float_of_int v.order) "states"; metric "peak_rss_mb" p.rss_mb "MB" ];
      attempted;
      failed = v.failed;
      notes = v.notes;
    }

(* Per-layer values of one pass, from each response's server wall and
   the Stats response. *)
let layer_values (p : pass) =
  let ok = ok_answers p.answers in
  let median_where f = Stats.median0 (List.filter_map f ok) in
  let tier_wall t =
    median_where (fun (_, r) -> if tier r = t then Some (server_wall r) else None)
  in
  let warm = p.stat "rom_hits" +. p.stat "samples_hits" +. p.stat "network_hits" in
  [ ("store.rom_hit_s", tier_wall "rom-hit"); ("store.samples_hit_s", tier_wall "samples-hit");
    ("store.network_hit_s", tier_wall "network-hit"); ("store.miss_s", tier_wall "miss");
    ( "store.export_s",
      median_where (fun ((a : Daemon.answer), r) ->
          if a.spec.Gen.export then Some (server_wall r) else None) );
    ( "server.overhead_s",
      median_where (fun ((a : Daemon.answer), r) -> Some (a.rtt_s -. server_wall r)) );
    ("store.hit_share", warm /. Float.max 1.0 (p.stat "jobs"));
    ("store.evictions", p.stat "evictions"); ("store.parses", p.stat "parses");
    ("store.symbolic", p.stat "symbolic"); ("store.solves", p.stat "solves");
    ("trace.job_p50_s", Stats.median (rtts p)) ]

(* Three passes of [seconds / 3], each on a fresh daemon: traced with two
   connections to [--workers 2], traced with one connection to
   [--workers 1], untraced with two.  The trace holds one client-side
   span per request, named by the tier that answered it. *)
let traced ~seed ~seconds =
  let third = seconds /. 3.0 in
  let stream = Gen.serve_stream ~length:stream_length in
  let origin = now () in
  let pass ~workers ~connections ~tag =
    drive (setup ~workers ~connections ~tag) ~seed ~seconds:third ~stream
  in
  let p = pass ~workers:2 ~connections:2 ~tag:"traced" in
  let p1 = pass ~workers:1 ~connections:1 ~tag:"w1" in
  let plain = pass ~workers:2 ~connections:2 ~tag:"plain" in
  let tr = Span.create () in
  List.iter
    (fun (a : Daemon.answer) ->
      let name =
        match Daemon.ok_response a.result with Some r -> "serve." ^ tier r | None -> "serve.error"
      in
      Span.add_span tr
        { Span.id = a.idx; name; job = a.idx; parent = -1; t0 = a.sent; t1 = a.sent +. a.rtt_s })
    p.answers;
  (* every pass is checked; cold references are shared between them *)
  let cache = Hashtbl.create 64 in
  let verdicts =
    List.map
      (fun (label, q) -> (label, verify ~seed ~cache q))
      [ ("traced", p); ("1 worker", p1); ("untraced", plain) ]
  in
  let v = List.assoc "traced" verdicts in
  record
    (base_fields ~seed @ mix_fields p @ checked_fields v @ host_fields ~workers:"2,1");
  write_trace tr ~origin ~tag:(Printf.sprintf "serve-mix-seed%d" seed);
  print_result
    {
      metrics =
        layer_metrics ~main:(layer_values p) ~w1:(layer_values p1)
          ~untraced_p50:(Stats.median (rtts plain));
      attempted = List.length p.answers + List.length p1.answers + List.length plain.answers;
      failed = List.fold_left (fun n (_, v) -> n + v.failed) 0 verdicts;
      notes =
        List.concat_map (fun (label, v) -> List.map (fun n -> label ^ " pass: " ^ n) v.notes) verdicts;
    }
