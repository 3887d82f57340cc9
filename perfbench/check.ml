(* Output checks: the in-band accuracy of a ROM against its full model,
   and bitwise identity of ROMs through their digests. *)

open Pmtbr_la
open Pmtbr_lti

(* The check grid of [pmtbr reduce]'s in-band report: 40 points from
   [hi/100] (or the band's lower edge, if higher) to [hi]. *)
let grid ~lo ~hi = Vec.linspace (Float.max lo (hi /. 100.0)) hi 40

(* Worst relative error of [rom] against [sys] over the grid: the full
   model's sweep against the ROM's, both through the sweep engine with
   the grid's first point as template, as [Freq.sweep] plans them.  The
   prepare and sweep stages are spans when traced. *)
let in_band ?tr ?(job = -1) ?parent ?workers sys rom ~lo ~hi =
  let omegas = grid ~lo ~hi in
  let template = { Complex.re = 0.0; im = omegas.(0) } in
  let sweep model =
    let span name f = Span.with_ tr ~job ?parent name (fun _ -> f ()) in
    let plan = span "sweep_engine.prepare" (fun () -> Sweep_engine.prepare ~template model) in
    span "sweep_engine.sweep" (fun () -> Sweep_engine.sweep ?workers plan omegas)
  in
  let href = sweep sys in
  Freq.max_rel_error href (sweep rom)

let digest = Pmtbr_serve.Store.rom_digest

(* Keys whose answers disagree with their reference digest, or with each
   other: [(key, digest)] answers against an optional per-key reference.
   An empty result means every answer is bitwise-identical to the
   reference (or, without one, to the key's first answer). *)
let digest_mismatches ?(reference = fun _ -> None) answers =
  let first = Hashtbl.create 16 in
  List.filter_map
    (fun (key, d) ->
      let want =
        match reference key with
        | Some r -> r
        | None -> (
            match Hashtbl.find_opt first key with
            | Some r -> r
            | None ->
                Hashtbl.add first key d;
                d)
      in
      if d = want then None else Some key)
    answers
  |> List.sort_uniq compare
