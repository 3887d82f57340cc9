(* Seeded input generators.  Every workload input is SPICE text built
   here from the run's seed; the program under test only ever sees that
   text.  A seed fixes the element values (jittered around nominal), so
   the same seed always yields byte-identical text while the topology —
   and therefore the work each job does — stays the same across seeds. *)

(* SplitMix64: a tiny generator whose output depends on nothing but the
   seed, so inputs are identical across OCaml versions and hosts. *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next64 g =
  g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let float01 g = Int64.to_float (Int64.shift_right_logical (next64 g) 11) /. 9007199254740992.0

let int g bound = int_of_float (float01 g *. float_of_int bound)

(* Element values are their nominal value scaled by a seeded factor in
   [0.98, 1.02]: enough that every seed is a different netlist, small
   enough that every seed asks for the same work and accuracy. *)
let jitter = 0.02

let jittered g v = v *. (1.0 +. (jitter *. ((2.0 *. float01 g) -. 1.0)))

type netlist = {
  text : string;
  states : int;  (** non-ground nodes = MNA states (no inductors here) *)
  ports : int;
  elements : int;
}

let render ~title ~nodes ~ports (cards : (char * int * int * float) list) =
  let buf = Buffer.create (40 * (List.length cards + List.length ports) + 64) in
  Buffer.add_string buf ("* " ^ title ^ "\n");
  let counts = Hashtbl.create 2 in
  List.iter
    (fun (kind, a, b, v) ->
      let k = 1 + Option.value (Hashtbl.find_opt counts kind) ~default:0 in
      Hashtbl.replace counts kind k;
      Buffer.add_string buf (Printf.sprintf "%c%d %d %d %.6e\n" kind k a b v))
    cards;
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf ".port %d\n" p)) ports;
  Buffer.add_string buf ".end\n";
  {
    text = Buffer.contents buf;
    states = nodes;
    ports = List.length ports;
    elements = List.length cards;
  }

(* Ports spread over [total] cells with a golden-ratio stride, as the
   library's own mesh generator does; stride coprime with [total]. *)
let spread_ports ~total ~ports =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec coprime s = if s <= 1 then 1 else if gcd s total = 1 then s else coprime (s - 1) in
  let stride = coprime (int_of_float (0.618 *. float_of_int total)) in
  List.init ports (fun k -> 1 + (k * stride mod total))

(* Rectangular RC mesh (the paper's Figs. 3/13 substrate): a resistor
   grid with a capacitor and a leak resistor to ground at every node. *)
let rc_mesh ~seed ~rows ~cols ~ports =
  let g = rng seed in
  let node i j = 1 + (i * cols) + j in
  let cards = ref [] in
  let add kind a b v = cards := (kind, a, b, jittered g v) :: !cards in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let nd = node i j in
      add 'C' nd 0 1e-13;
      add 'R' nd 0 1e4;
      if j + 1 < cols then add 'R' nd (node i (j + 1)) 100.0;
      if i + 1 < rows then add 'R' nd (node (i + 1) j) 100.0
    done
  done;
  render
    ~title:(Printf.sprintf "rc mesh %dx%d, %d ports, seed %d" rows cols ports seed)
    ~nodes:(rows * cols) ~ports:(spread_ports ~total:(rows * cols) ~ports)
    (List.rev !cards)

(* Sampling band of the meshes (rad/s), the CLI's rc-mesh default. *)
let mesh_band = 2e10

(* Many-port substrate (the paper's Figs. 15/16): contacts and internal
   nodes on a square lattice, each resistively coupled to its lattice
   neighbours and diagonal neighbours, with a resistive and a capacitive
   path to the grounded backplane.  Ports are the first [ports] lattice
   sites in stride order. *)
let substrate ~seed ~ports ~internal =
  let g = rng seed in
  let n = ports + internal in
  let side = int_of_float (Float.ceil (Float.sqrt (float_of_int n))) in
  let cards = ref [] in
  let add kind a b v = cards := (kind, a, b, jittered g v) :: !cards in
  let node k = 1 + k in
  let at i j = if i < side && j < side && (i * side) + j < n then Some ((i * side) + j) else None in
  for k = 0 to n - 1 do
    let i = k / side and j = k mod side in
    let couple other g_nom =
      match other with Some o -> add 'R' (node k) (node o) (1.0 /. g_nom) | None -> ()
    in
    couple (at i (j + 1)) 2e-3;
    couple (at (i + 1) j) 2e-3;
    couple (at (i + 1) (j + 1)) 7e-4;
    couple (at (i + 1) (j - 1)) 7e-4;
    add 'R' (node k) 0 (1.0 /. 2e-4);
    add 'C' (node k) 0 50e-15
  done;
  render
    ~title:(Printf.sprintf "substrate %d ports + %d internal, seed %d" ports internal seed)
    ~nodes:n
    ~ports:(spread_ports ~total:n ~ports)
    (List.rev !cards)

(* Sampling band of the substrate: 100x its backplane corner 2e-4/50e-15. *)
let substrate_band = 100.0 *. (2e-4 /. 50e-15)

(* --- serve-mix: a pool of moderate networks and a job stream over it --- *)

type kind = Repeat | Retol | New_band | Unseen | Export | Hier_job

let kind_name = function
  | Repeat -> "repeat"
  | Retol -> "re-tol"
  | New_band -> "new-band"
  | Unseen -> "unseen"
  | Export -> "export"
  | Hier_job -> "hier"

type spec = {
  kind : kind;  (** why the job was drawn; the tier that answers it is the daemon's call *)
  net : int;  (** network id: [0 .. pool_flat-1] flat pool, then the long hier meshes,
                  then unseen networks *)
  meth : Pmtbr_serve.Protocol.meth;
  band : float * float;
  tol : float;
  samples : int;
  export : bool;
}

let pool_flat = 12
let pool_hier = 2
let serve_bands = [| (0.0, 2e10); (0.0, 1e10); (1e9, 2e10); (0.0, 4e10) |]
let pmtbr_tols = [| 1e-5; 1e-6; 1e-7 |]
let hier_parts = 4
let hier_tol = 1e-4

(* Network [id] of a serve-mix run: the element values come from the run
   seed, the shape from the id alone, so every seed serves the same mix
   of work. *)
let serve_network ~seed id =
  if id >= pool_flat && id < pool_flat + pool_hier then
    rc_mesh ~seed:((seed * 7919) + id) ~rows:4 ~cols:96 ~ports:4
  else rc_mesh ~seed:((seed * 7919) + id) ~rows:16 ~cols:16 ~ports:4

(* The store key a job is answered under (export rides on the same ROM). *)
let spec_key s =
  Printf.sprintf "%d|%s|%g:%g|%g|%d" s.net (Pmtbr_serve.Protocol.meth_name s.meth) (fst s.band)
    (snd s.band) s.tol s.samples

(* The job stream.  Its structure — which kind of job comes when, on which
   network id — is drawn from a fixed stream seed, so runs with different
   seeds differ in element values only; the share of each kind is fixed
   here.  Exact repeats re-send one of the last 8 distinct jobs, re-tol
   jobs change the tolerance of one of the last 8 flat PMTBR jobs (its
   samples are likely still held), new-band jobs put a pool network on a
   band it has not been sampled on, unseen jobs bring a network never sent
   before.  The shares are an assumption, not recorded traffic: each kind
   gets at least 4%, so that even a 15-second run holds about ten jobs
   of each, and repeats take the rest, so that hits set the median while
   misses fill the tail (NOTES.md shows the split a run measures). *)
let serve_stream ~length =
  let g = rng 2004 in
  let recent = ref [] and recent_pmtbr = ref [] and next_unseen = ref (pool_flat + pool_hier) in
  let bands_used = Hashtbl.create 16 in
  let pick l = List.nth l (int g (List.length l)) in
  let remember s =
    let take n l = List.filteri (fun i _ -> i < n) l in
    let fresh l = not (List.exists (fun t -> spec_key t = spec_key s) l) in
    if fresh !recent then recent := take 8 (s :: !recent);
    if s.meth = Pmtbr_serve.Protocol.Pmtbr && fresh !recent_pmtbr then
      recent_pmtbr := take 8 (s :: !recent_pmtbr)
  in
  let flat ~kind net band =
    Hashtbl.replace bands_used (net, band) ();
    { kind; net; meth = Pmtbr_serve.Protocol.Pmtbr; band; tol = pmtbr_tols.(int g 3); samples = 16;
      export = false }
  in
  let draw () =
    let r = float01 g in
    if r < 0.65 && !recent <> [] then { (pick !recent) with kind = Repeat }
    else if r < 0.75 && !recent_pmtbr <> [] then
      let s = pick !recent_pmtbr in
      let others = List.filter (fun t -> t <> s.tol) (Array.to_list pmtbr_tols) in
      { s with kind = Retol; tol = pick others }
    else if r < 0.82 then begin
      let net = int g pool_flat in
      let fresh =
        List.filter (fun b -> not (Hashtbl.mem bands_used (net, b))) (Array.to_list serve_bands)
      in
      flat ~kind:New_band net (if fresh = [] then serve_bands.(int g 4) else pick fresh)
    end
    else if r < 0.90 then begin
      incr next_unseen;
      flat ~kind:Unseen (!next_unseen - 1) serve_bands.(0)
    end
    else if r < 0.96 then
      { kind = Export; net = int g pool_flat; meth = Pmtbr_serve.Protocol.Tbr_passive;
        band = serve_bands.(0); tol = 1e-6; samples = 16; export = true }
    else
      { kind = Hier_job; net = pool_flat + int g pool_hier; meth = Pmtbr_serve.Protocol.Hier;
        band = serve_bands.(0); tol = hier_tol; samples = 6; export = false }
  in
  Array.init length (fun _ ->
      let s = draw () in
      remember s;
      s)

let to_job s ~netlist =
  let hier = s.meth = Pmtbr_serve.Protocol.Hier in
  {
    Pmtbr_serve.Protocol.meth = s.meth;
    band = s.band;
    tol = Some s.tol;
    order = None;
    samples = s.samples;
    partition = (if hier then Some (Pmtbr_serve.Protocol.Parts hier_parts) else None);
    max_part_states = None;
    interface_tol = (if hier then Some hier_tol else None);
    export = s.export;
    netlist;
  }
