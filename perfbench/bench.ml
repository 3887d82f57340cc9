(* The reduction-pipeline benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds, checks its outputs, prints the run
   record and every metric by name with its unit, and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  [--trace 0]
   reports the end-to-end metrics; [--trace 1] rebuilds the pipelines
   from the same public calls wrapped in spans and reports the per-layer
   metrics, their one-worker [.w1] twins and the tracing overhead.  Run it
   from the repository root; run.py builds it first.  See NOTES.md. *)

open Perfbench

let workloads = List.map (fun (w : Oneshot.t) -> w.name) Oneshot.workloads @ [ "serve-mix" ]

let () =
  (* a vanished daemon must surface as a failed request, not kill the bench *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run, or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  match List.find_opt (fun (w : Oneshot.t) -> w.name = !workload) Oneshot.workloads with
  | Some w ->
      if traced then Oneshot.traced w ~seed ~seconds else Oneshot.end_to_end w ~seed ~seconds
  | None when !workload = "serve-mix" ->
      if traced then Serve_mix.traced ~seed ~seconds else Serve_mix.end_to_end ~seed ~seconds
  | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "; one of " ^ String.concat ", " workloads);
      exit 2
