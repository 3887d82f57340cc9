(* Tests of the benchmark's own logic: tail-percentile choice, self time,
   generator determinism and the digest check. *)

open Perfbench
open Pmtbr_la
open Pmtbr_lti

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let t = Option.get (Stats.tail (floats 100)) in
  Alcotest.(check (float 0.0)) "p90 of 100" 90.0 t.Stats.pct;
  Alcotest.(check (float 0.0)) "nearest rank" 90.0 t.Stats.value;
  Alcotest.(check int) "ten beyond" 10 t.Stats.beyond;
  let t = Option.get (Stats.tail (floats 1000)) in
  Alcotest.(check (float 0.0)) "p99 of 1000" 99.0 t.Stats.pct;
  Alcotest.(check int) "ten beyond p99" 10 t.Stats.beyond;
  let t = Option.get (Stats.tail (floats 10_000)) in
  Alcotest.(check (float 0.0)) "p99.9 of 10000" 99.9 t.Stats.pct;
  let t = Option.get (Stats.tail (List.rev (floats 20))) in
  Alcotest.(check (float 0.0)) "p50 of 20, input order irrelevant" 50.0 t.Stats.pct;
  Alcotest.(check (float 0.0)) "p50 value" 10.0 t.Stats.value;
  Alcotest.(check bool) "19 samples: no tail" true (Stats.tail (floats 19) = None);
  (* 109 samples: p90 has rank 99 and only 10 beyond, p95 has 5 *)
  let t = Option.get (Stats.tail (floats 109)) in
  Alcotest.(check (float 0.0)) "p90 of 109" 90.0 t.Stats.pct;
  Alcotest.(check bool) "at least ten beyond" true (t.Stats.beyond >= 10)

let span ?(job = 0) id parent t0 t1 = { Span.id; name = "s"; job; parent; t0; t1 }

let test_self_time () =
  let parent = span 0 (-1) 0.0 10.0 in
  let spans =
    [
      parent;
      span 1 0 1.0 3.0;
      (* overlaps the first child: [1, 5] counts once *)
      span 2 0 2.0 5.0;
      (* runs past the parent's end: clipped to [8, 10] *)
      span 3 0 8.0 12.0;
      (* a grandchild: covered by its parent, not by the root *)
      span 4 1 1.5 2.5;
      (* same parent id, other job: not a child *)
      span ~job:1 5 0 6.0 7.0;
    ]
  in
  Alcotest.(check (float 1e-12)) "root self time" 4.0 (Span.self_time spans parent);
  Alcotest.(check (float 1e-12)) "nested child" 1.0 (Span.self_time spans (List.nth spans 1));
  Alcotest.(check (float 1e-12)) "leaf" 3.0 (Span.self_time spans (List.nth spans 2));
  Alcotest.(check (float 1e-12)) "disjoint union" 3.0
    (Span.covered ~lo:0.0 ~hi:10.0 [ (0.0, 1.0); (4.0, 5.0); (2.0, 3.0) ])

let test_generators () =
  let same name a b = Alcotest.(check string) name a b in
  let mesh seed = (Gen.rc_mesh ~seed ~rows:6 ~cols:7 ~ports:3).Gen.text in
  same "mesh is a function of its seed" (mesh 11) (mesh 11);
  Alcotest.(check bool) "seeds differ" true (mesh 11 <> mesh 12);
  let sub seed = (Gen.substrate ~seed ~ports:5 ~internal:20).Gen.text in
  same "substrate is a function of its seed" (sub 3) (sub 3);
  let net () = (Gen.serve_network ~seed:4 13).Gen.text in
  same "serve network" (net ()) (net ());
  let keys () = Array.map Gen.spec_key (Gen.serve_stream ~length:300) in
  Alcotest.(check (array string)) "job stream" (keys ()) (keys ());
  (* the text says what the record claims *)
  let nl = Gen.rc_mesh ~seed:1 ~rows:6 ~cols:7 ~ports:3 in
  let sys = Dss.of_netlist (Pipeline.parse nl.Gen.text) in
  Alcotest.(check int) "states" nl.Gen.states (Dss.order sys);
  Alcotest.(check int) "ports" nl.Gen.ports (Dss.inputs sys)

let test_digest_check () =
  let nl = Gen.rc_mesh ~seed:1 ~rows:5 ~cols:5 ~ports:2 in
  let sys = Dss.of_netlist (Pipeline.parse nl.Gen.text) in
  let cfg = { Pipeline.band = Gen.mesh_band; count = 4; order = 3 } in
  let rom = Pipeline.flat_entry cfg nl.Gen.text in
  let a = Dss.a_dense rom in
  let bumped = Mat.copy a in
  Mat.set bumped 0 0 (Float.succ (Mat.get a 0 0));
  let perturbed =
    Dss.of_dense ~e:(Dss.e_dense rom) ~a:bumped ~b:(Dss.b_matrix rom) ~c:(Dss.c_matrix rom)
  in
  let good = Check.digest rom in
  Alcotest.(check bool) "one ulp changes the digest" true (good <> Check.digest perturbed);
  let reference _ = Some good in
  Alcotest.(check (list string)) "identical ROM passes" []
    (Check.digest_mismatches ~reference [ ("k", Check.digest rom) ]);
  Alcotest.(check (list string)) "perturbed ROM rejected" [ "k" ]
    (Check.digest_mismatches ~reference [ ("k", good); ("k", Check.digest perturbed) ]);
  Alcotest.(check (list string)) "answers of one key must agree" [ "k" ]
    (Check.digest_mismatches [ ("k", good); ("j", good); ("k", Check.digest perturbed) ]);
  (* the traced rebuild is the same program *)
  let tr = Span.create () in
  let traced = Pipeline.flat_traced tr ~job:0 cfg nl.Gen.text in
  Alcotest.(check string) "traced rebuild digest" good (Check.digest traced);
  Alcotest.(check bool) "ROM is accurate" true
    (Check.in_band sys rom ~lo:0.0 ~hi:Gen.mesh_band < 1e-2)

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "tail percentile" `Quick test_tail ]);
      ("span", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("gen", [ Alcotest.test_case "seeded generators" `Quick test_generators ]);
      ("check", [ Alcotest.test_case "digest check" `Quick test_digest_check ]);
    ]
