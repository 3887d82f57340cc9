(* What a run prints: the run record, every metric by name with its unit,
   and the closing JSON line; plus the timing helpers and the per-layer
   metric catalogue the workloads share. *)

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

type result = {
  metrics : metric list;  (** what the JSON line carries *)
  attempted : int;
  failed : int;
  notes : string list;  (** why checks failed, printed before the JSON *)
}

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "non-finite metric"

let print_result r =
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) r.notes;
  List.iter (fun x -> Printf.printf "  %-36s %16.9g %s\n" x.name x.value x.unit_) r.metrics;
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0 && r.notes = []) r.attempted r.failed (String.concat ", " body)

let record fields =
  Printf.printf "run: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) fields))

(* Online CPUs, counted from the ranges in /sys ("0-3,6"); "unknown"
   where the file is missing or unreadable. *)
let host_cores () =
  let count ranges =
    List.fold_left
      (fun n r ->
        match String.split_on_char '-' (String.trim r) with
        | [ a ] ->
            ignore (int_of_string a);
            n + 1
        | [ a; b ] -> n + int_of_string b - int_of_string a + 1
        | _ -> failwith "cpu range")
      0
      (String.split_on_char ',' ranges)
  in
  match In_channel.with_open_text "/sys/devices/system/cpu/online" In_channel.input_all with
  | text -> ( try string_of_int (count text) with Failure _ -> "unknown")
  | exception Sys_error _ -> "unknown"

let host_fields ~workers =
  [
    ("workers", workers);
    ("host_cores", host_cores ());
    ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
  ]

(* The end-to-end metrics the JSON line does not carry, because not every
   workload has them: the accuracy check time (one-shot workloads only),
   the tail percentile (only with ten jobs past it) and the failure share
   (the JSON has [failed] and [attempted]). *)
let print_unbounded ?check_s ~times ~attempted ~failed () =
  Option.iter (fun v -> Printf.printf "  %-36s %16.9g s\n" "check_s" v) check_s;
  (match Stats.tail times with
  | Some t ->
      Printf.printf "  %-36s %16.9g s (p%g of %d jobs, %d beyond)\n" "job_tail_s" t.Stats.value
        t.Stats.pct t.Stats.n t.Stats.beyond
  | None ->
      Printf.printf "  %-36s %16s   (only %d jobs: no percentile has 10 beyond it)\n" "job_tail_s"
        "n/a" (List.length times));
  Printf.printf "  %-36s %16.9g share (%d of %d)\n" "fail_share"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted

(* --- timing --- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] back to back until [seconds] have passed, at least once;
   returns each result with its time, and the whole wall. *)
let repeat_for ~seconds f =
  let t_start = now () in
  let rec go acc =
    if acc <> [] && now () -. t_start >= seconds then List.rev acc else go (timed f :: acc)
  in
  let runs = go [] in
  (runs, now () -. t_start)

(* Set-ups per end-to-end run: at least [setup_repeats], and more until
   [setup_seconds] have passed; [setup_s] is their median. *)
let setup_repeats = 5
let setup_seconds = 1.0

(* Set up that many times; returns the last set-up and every time.
   [discard] releases each earlier set-up before the next starts. *)
let repeat_setup ?(discard = ignore) f =
  let t_start = now () in
  let rec go n times =
    let r, t = timed f in
    if n + 1 >= setup_repeats && now () -. t_start >= setup_seconds then (r, List.rev (t :: times))
    else begin
      discard r;
      go (n + 1) (t :: times)
    end
  in
  go 0 []

(* Peak resident set (VmHWM) of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* Spans of traced runs and the daemon sockets live here (git-ignored). *)
let out_dir = "perfbench/out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let write_trace tr ~origin ~tag =
  ensure_out_dir ();
  let path = Filename.concat out_dir (tag ^ ".jsonl") in
  Span.write_jsonl tr ~origin path;
  Printf.printf "spans written to %s\n" path

(* --- per-layer metrics --- *)

(* Span-timed layers, reported as the median over jobs of each job's
   summed span time (so parallel parts add up to their busy time). *)
let span_layers =
  [ "spice.parse"; "mna.stamp"; "shifted.symbolic"; "sample_cache.extend";
    "sample_cache.apply_q"; "pmtbr.finish"; "svd.decompose"; "dss.project"; "partition.split";
    "hier_reduce.sample_part"; "hier_reduce.basis_of_part"; "hier_reduce.project_part";
    "hier_reduce.fanout"; "hier_reduce.assemble"; "hier_reduce.compress"; "sweep_engine.prepare";
    "sweep_engine.sweep" ]

(* Counters taken at span boundaries, with their units. *)
let counter_layers =
  [ ("spice.bytes", "bytes"); ("shift_engine.factor_s", "s"); ("shift_engine.solve_s", "s");
    ("shift_engine.solves", "count"); ("shift_engine.utilisation", "share");
    ("shift_engine.minor_words", "words"); ("sample_cache.qr_s", "s");
    ("sample_cache.columns", "count"); ("sample_cache.minor_words", "words");
    ("svd.cols", "count"); ("svd.minor_words", "words");
    ("hier_reduce.part_imbalance", "ratio"); ("hier_reduce.interface", "count");
    ("hier_reduce.interface_kept", "count"); ("hier_reduce.solves", "count") ]

(* Daemon-side layers, seen through each response's [wall_us] and the
   Stats response. *)
let serve_layers =
  [ ("store.rom_hit_s", "s"); ("store.samples_hit_s", "s"); ("store.network_hit_s", "s");
    ("store.miss_s", "s"); ("store.export_s", "s"); ("server.overhead_s", "s");
    ("store.hit_share", "share"); ("store.evictions", "count"); ("store.parses", "count");
    ("store.symbolic", "count"); ("store.solves", "count") ]

(* The whole per-layer list in report order: every layer and the traced
   job median, the one-worker twin of each time, the tracing overhead.
   A layer a workload does not exercise reports 0. *)
let layer_units =
  let base =
    List.map (fun s -> (s ^ "_s", "s")) span_layers
    @ counter_layers @ serve_layers
    @ [ ("trace.job_p50_s", "s") ]
  in
  let w1 = List.filter (fun (n, _) -> Filename.check_suffix n "_s") base in
  base @ List.map (fun (n, u) -> (n ^ ".w1", u)) w1 @ [ ("trace.overhead_share", "share") ]

(* Span and counter values of one traced pass. *)
let layer_values tr =
  let spans = Span.spans tr and counters = Span.counters tr in
  List.map (fun s -> (s ^ "_s", Stats.median0 (Span.per_job_total spans s))) span_layers
  @ List.map (fun (c, _) -> (c, Stats.median0 (Span.per_job_counter counters c))) counter_layers

(* The per-layer metrics from the default-worker pass ([main]), the
   one-worker pass ([w1]) and the untraced job median. *)
let layer_metrics ~main ~w1 ~untraced_p50 =
  let get tbl n = Option.value (List.assoc_opt n tbl) ~default:0.0 in
  List.map
    (fun (n, u) ->
      let v =
        if n = "trace.overhead_share" then
          (get main "trace.job_p50_s" -. untraced_p50) /. untraced_p50
        else if Filename.check_suffix n ".w1" then get w1 (Filename.chop_suffix n ".w1")
        else get main n
      in
      metric n v u)
    layer_units

(* Median self time per job of every span name. *)
let print_self_times label tr =
  let spans = Span.spans tr in
  Printf.printf "self time per job (%s):\n" label;
  List.iter
    (fun name ->
      let per_job = Hashtbl.create 8 in
      List.iter
        (fun (s : Span.span) ->
          if s.name = name then
            let before = Option.value (Hashtbl.find_opt per_job s.job) ~default:0.0 in
            Hashtbl.replace per_job s.job (before +. Span.self_time spans s))
        spans;
      let v = Stats.median (Hashtbl.fold (fun _ v acc -> v :: acc) per_job []) in
      Printf.printf "  %-36s %12.6f s\n" name v)
    (Span.names spans)
