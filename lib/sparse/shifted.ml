(* Factorisation of the shifted pencil (s E - A) for complex s, assembled
   from real triplet accumulators.  This is the inner kernel of PMTBR: one
   complex sparse factorisation per frequency sample. *)

type pencil = { e : Triplet.t; a : Triplet.t; n : int }

let pencil ~e ~a =
  let re, ce = Triplet.dims e and ra, ca = Triplet.dims a in
  let n = max (max re ce) (max ra ca) in
  assert (re <= n && ce <= n && ra <= n && ca <= n);
  { e; a; n }

(* Unboxed complex factor.  A [Complex.t array] is an array of pointers to
   two-float records, so a loop over one pays an allocation per multiply
   and a cache miss per load; storing the values as parallel re/im float
   arrays (which OCaml unboxes) makes the factorisation, the per-shift
   replay and the solves allocation-free.  Replayed factors share the
   structure arrays of the template. *)
type zfactor = {
  zn : int;
  zl_colptr : int array;
  zl_rowind : int array;
  zl_re : float array;
  zl_im : float array;
  zu_colptr : int array;
  zu_rowind : int array;
  zu_re : float array;
  zu_im : float array;
  zd_re : float array; (* U diagonal (the pivots) *)
  zd_im : float array;
  zpinv : int array;
  zq : int array;
}

let nnz f = f.zl_colptr.(f.zn) + f.zu_colptr.(f.zn) + f.zn

(* Column storage that grows by doubling while the factor is built. *)
type cols = {
  mutable idx : int array;
  mutable re : float array;
  mutable im : float array;
  mutable len : int;
}

let cols_create cap = { idx = Array.make cap 0; re = Array.make cap 0.0; im = Array.make cap 0.0; len = 0 }

(* Make room for one more entry.  Callers then write [idx]/[re]/[im] at
   [len] themselves: passing the floats to a function would box them. *)
let cols_reserve c =
  if c.len = Array.length c.idx then begin
    let cap = 2 * c.len in
    let idx = Array.make cap 0 and re = Array.make cap 0.0 and im = Array.make cap 0.0 in
    Array.blit c.idx 0 idx 0 c.len;
    Array.blit c.re 0 re 0 c.len;
    Array.blit c.im 0 im 0 c.len;
    c.idx <- idx;
    c.re <- re;
    c.im <- im
  end

(* Move a.(root) down the max-heap a.(lo .. stop-1) rooted at [lo]. *)
let rec sift (a : int array) lo root stop =
  let child = lo + (2 * (root - lo)) + 1 in
  if child < stop then begin
    let child = if child + 1 < stop && a.(child + 1) > a.(child) then child + 1 else child in
    if a.(child) > a.(root) then begin
      let t = a.(child) in
      a.(child) <- a.(root);
      a.(root) <- t;
      sift a lo child stop
    end
  end

(* In-place heapsort of a.(lo .. hi-1), ascending. *)
let sort_range (a : int array) lo hi =
  for start = lo + ((hi - lo) / 2) - 1 downto lo do
    sift a lo start hi
  done;
  for stop = hi - 1 downto lo + 1 do
    let t = a.(lo) in
    a.(lo) <- a.(stop);
    a.(stop) <- t;
    sift a lo lo stop
  done

(* Left-looking Gilbert-Peierls LU with partial pivoting, entirely on
   float planes: the same algorithm, the same operation order and the
   same tie-breaks as [Sparse_lu.C.factorize ~ordering:(Given q)], so the
   two produce bitwise-identical factors (the test suite keeps the boxed
   functor as the oracle).  For each pivot column the reach of A(:, q.(k))
   in the graph of the finished L columns gives the nonzero pattern in
   topological order; the numeric solve then runs in time proportional to
   the flops, the largest remaining entry becomes the pivot, and U columns
   are sorted into ascending pivot order for the replay. *)
let zfactorize ~(colptr : int array) ~(rowind : int array) ~(re : float array)
    ~(im : float array) (q : int array) : zfactor =
  let n = Array.length q in
  if Array.length colptr <> n + 1 then invalid_arg "Shifted.zfactorize: colptr does not match q";
  let q = Ordering.compute (Ordering.Given q) colptr rowind n in
  let cap = max 16 (2 * Array.length rowind) in
  let l = cols_create cap and u = cols_create cap in
  let l_colptr = Array.make (n + 1) 0 and u_colptr = Array.make (n + 1) 0 in
  let d_re = Array.make n 0.0 and d_im = Array.make n 0.0 in
  let pinv = Array.make n (-1) in
  let prow = Array.make n 0 (* pivot position -> original row *) in
  let xre = Array.make n 0.0 and xim = Array.make n 0.0 in
  let mark = Array.make n (-1) in
  let topo = Array.make n 0 and stack = Array.make n 0 and child_pos = Array.make n 0 in
  for k = 0 to n - 1 do
    l_colptr.(k) <- l.len;
    u_colptr.(k) <- u.len;
    let jcol = q.(k) in
    (* symbolic: union of the reaches of the rows of A(:, jcol), each DFS
       appending its nodes in reverse topological order *)
    let nz = ref 0 in
    for p = colptr.(jcol) to colptr.(jcol + 1) - 1 do
      let start = rowind.(p) in
      if mark.(start) <> k then begin
        let sp = ref 0 in
        stack.(0) <- start;
        mark.(start) <- k;
        child_pos.(start) <- 0;
        while !sp >= 0 do
          let v = stack.(!sp) in
          let piv = pinv.(v) in
          let found = ref (-1) in
          if piv >= 0 then begin
            let base = l_colptr.(piv) in
            let clen = l_colptr.(piv + 1) - base in
            let c = ref child_pos.(v) in
            while !found < 0 && !c < clen do
              let r = l.idx.(base + !c) in
              incr c;
              if mark.(r) <> k then found := r
            done;
            child_pos.(v) <- !c
          end;
          if !found >= 0 then begin
            incr sp;
            stack.(!sp) <- !found;
            mark.(!found) <- k;
            child_pos.(!found) <- 0
          end
          else begin
            topo.(!nz) <- v;
            incr nz;
            decr sp
          end
        done
      end
    done;
    let nz = !nz in
    (* scatter the numeric column *)
    for t = 0 to nz - 1 do
      xre.(topo.(t)) <- 0.0;
      xim.(topo.(t)) <- 0.0
    done;
    for p = colptr.(jcol) to colptr.(jcol + 1) - 1 do
      let i = rowind.(p) in
      xre.(i) <- re.(p);
      xim.(i) <- im.(p)
    done;
    (* sparse triangular solve in topological order *)
    for t = nz - 1 downto 0 do
      let i = topo.(t) in
      let piv = pinv.(i) in
      if piv >= 0 then begin
        let xjre = xre.(i) and xjim = xim.(i) in
        if xjre <> 0.0 || xjim <> 0.0 then
          for c = l_colptr.(piv) to l_colptr.(piv + 1) - 1 do
            let r = l.idx.(c) in
            let lre = l.re.(c) and lim = l.im.(c) in
            xre.(r) <- xre.(r) -. ((lre *. xjre) -. (lim *. xjim));
            xim.(r) <- xim.(r) -. ((lre *. xjim) +. (lim *. xjre))
          done
      end
    done;
    (* partial pivoting among the non-pivotal rows, first maximum wins *)
    let pivrow = ref (-1) and pivmag = ref 0.0 in
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      if pinv.(i) < 0 then begin
        let mag = Float.hypot xre.(i) xim.(i) in
        if mag > !pivmag then begin
          pivmag := mag;
          pivrow := i
        end
      end
    done;
    if !pivrow < 0 || !pivmag = 0.0 then raise (Sparse_lu.C.Singular k);
    let pivrow = !pivrow in
    let pre = xre.(pivrow) and pim = xim.(pivrow) in
    pinv.(pivrow) <- k;
    prow.(k) <- pivrow;
    d_re.(k) <- pre;
    d_im.(k) <- pim;
    (* pivotal rows go to U, the rest to L divided by the pivot (Smith's
       division, as Complex.div) *)
    let big_re = Float.abs pre >= Float.abs pim in
    let r = if big_re then pim /. pre else pre /. pim in
    let d = if big_re then pre +. (r *. pim) else pim +. (r *. pre) in
    for t = 0 to nz - 1 do
      let i = topo.(t) in
      let piv = pinv.(i) in
      if piv >= 0 && piv < k then begin
        (* values are gathered once the column is sorted *)
        cols_reserve u;
        u.idx.(u.len) <- piv;
        u.len <- u.len + 1
      end
      else if i <> pivrow then begin
        let nre = xre.(i) and nim = xim.(i) in
        cols_reserve l;
        l.idx.(l.len) <- i;
        if big_re then begin
          l.re.(l.len) <- (nre +. (r *. nim)) /. d;
          l.im.(l.len) <- (nim -. (r *. nre)) /. d
        end
        else begin
          l.re.(l.len) <- ((r *. nre) +. nim) /. d;
          l.im.(l.len) <- ((r *. nim) -. nre) /. d
        end;
        l.len <- l.len + 1
      end
    done;
    sort_range u.idx u_colptr.(k) u.len;
    for p = u_colptr.(k) to u.len - 1 do
      let i = prow.(u.idx.(p)) in
      u.re.(p) <- xre.(i);
      u.im.(p) <- xim.(i)
    done
  done;
  l_colptr.(n) <- l.len;
  u_colptr.(n) <- u.len;
  (* L rows into pivot coordinates *)
  for p = 0 to l.len - 1 do
    l.idx.(p) <- pinv.(l.idx.(p))
  done;
  {
    zn = n;
    zl_colptr = l_colptr;
    zl_rowind = Array.sub l.idx 0 l.len;
    zl_re = Array.sub l.re 0 l.len;
    zl_im = Array.sub l.im 0 l.len;
    zu_colptr = u_colptr;
    zu_rowind = Array.sub u.idx 0 u.len;
    zu_re = Array.sub u.re 0 u.len;
    zu_im = Array.sub u.im 0 u.len;
    zd_re = d_re;
    zd_im = d_im;
    zpinv = pinv;
    zq = q;
  }

(* ------------------------------------------------------------------ *)
(* Multi-shift handle: symbolic work shared across all shifts           *)
(* ------------------------------------------------------------------ *)

(* The nonzero pattern of (sE - A) is the same for every s, so a sweep over
   many shifts should pay for the pattern assembly, the fill-reducing
   ordering and the elimination analysis exactly once.  [multi] stores the
   union pattern with separate E and A coefficient planes — the numeric
   matrix at shift s is just values[k] = s*e[k] - a[k] — plus a template
   factorisation whose structure every other shift replays. *)
type multi = {
  colptr : int array;
  rowind : int array;
  e_coef : float array;
  a_coef : float array;
  tz : zfactor; (* the template factor, replayed per shift *)
}

(* Union pattern of E and A as parallel coefficient arrays.  Two stable
   counting sorts (by row, then by column) put the entries in column-major
   order; entries at the same position are summed in the order they were
   stamped, E's before A's. *)
let assemble_pattern (p : pencil) =
  let n = p.n in
  let e_entries = Triplet.entries p.e and a_entries = Triplet.entries p.a in
  let m = List.length e_entries + List.length a_entries in
  let ri = Array.make m 0 and cj = Array.make m 0 in
  let ev = Array.make m 0.0 and av = Array.make m 0.0 in
  let t = ref 0 in
  let add (i, j, v) coef =
    assert (i >= 0 && i < n && j >= 0 && j < n);
    ri.(!t) <- i;
    cj.(!t) <- j;
    coef.(!t) <- v;
    incr t
  in
  List.iter (fun entry -> add entry ev) e_entries;
  List.iter (fun entry -> add entry av) a_entries;
  let bucket key src dst =
    let cnt = Array.make (n + 1) 0 in
    Array.iter (fun t -> cnt.(key.(t) + 1) <- cnt.(key.(t) + 1) + 1) src;
    for j = 0 to n - 1 do
      cnt.(j + 1) <- cnt.(j + 1) + cnt.(j)
    done;
    Array.iter
      (fun t ->
        dst.(cnt.(key.(t))) <- t;
        cnt.(key.(t)) <- cnt.(key.(t)) + 1)
      src
  in
  let by_row = Array.make m 0 and order = Array.make m 0 in
  bucket ri (Array.init m Fun.id) by_row;
  bucket cj by_row order;
  let colptr = Array.make (n + 1) 0 in
  let rowind = Array.make m 0 and e_coef = Array.make m 0.0 and a_coef = Array.make m 0.0 in
  let nnz = ref 0 and last_col = ref (-1) in
  Array.iter
    (fun t ->
      let k = !nnz - 1 in
      if k >= 0 && !last_col = cj.(t) && rowind.(k) = ri.(t) then begin
        e_coef.(k) <- e_coef.(k) +. ev.(t);
        a_coef.(k) <- a_coef.(k) +. av.(t)
      end
      else begin
        rowind.(!nnz) <- ri.(t);
        e_coef.(!nnz) <- ev.(t);
        a_coef.(!nnz) <- av.(t);
        colptr.(cj.(t) + 1) <- colptr.(cj.(t) + 1) + 1;
        last_col := cj.(t);
        incr nnz
      end)
    order;
  for j = 0 to n - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  (colptr, Array.sub rowind 0 !nnz, Array.sub e_coef 0 !nnz, Array.sub a_coef 0 !nnz)

(* A fresh pivoting factorisation of (sE - A) on the shared pattern, with
   the column order [q]. *)
let factor_at ~colptr ~rowind ~e_coef ~a_coef q (s : Complex.t) =
  let nnz = Array.length e_coef in
  let re = Array.make nnz 0.0 and im = Array.make nnz 0.0 in
  for k = 0 to nnz - 1 do
    re.(k) <- (s.Complex.re *. e_coef.(k)) -. a_coef.(k);
    im.(k) <- s.Complex.im *. e_coef.(k)
  done;
  zfactorize ~colptr ~rowind ~re ~im q

let prepare ?(ordering = Ordering.Min_degree) (p : pencil) ~(template : Complex.t) =
  let colptr, rowind, e_coef, a_coef = assemble_pattern p in
  let q = Ordering.compute ordering colptr rowind p.n in
  let tz = factor_at ~colptr ~rowind ~e_coef ~a_coef q template in
  { colptr; rowind; e_coef; a_coef; tz }

(* Factor (sE - A) once. *)
let factorize ?ordering (p : pencil) (s : Complex.t) : zfactor = (prepare ?ordering p ~template:s).tz

(* Reused pivots are declared stale below this magnitude relative to their
   eliminated column; the shift then pays for a fresh pivoting
   factorisation instead of losing accuracy silently. *)
let refactor_pivot_tol = 1e-10

(* ------------------------------------------------------------------ *)
(* Unboxed per-shift replay and solves                                   *)
(* ------------------------------------------------------------------ *)

exception Stale_pivot

(* Numeric-only replay of the template elimination at shift s, entirely on
   float arrays: the per-shift values s*e - a are scattered straight from
   the coefficient planes (the complex CSC matrix is never materialised)
   and the Gilbert-Peierls update loop runs without boxing a single
   complex.  Division is Smith's algorithm, matching Complex.div. *)
let zreplay (m : multi) (s : Complex.t) : zfactor =
  let t = m.tz in
  let n = t.zn in
  let sre = s.Complex.re and sim = s.Complex.im in
  let l_re = Array.make (Array.length t.zl_re) 0.0 in
  let l_im = Array.make (Array.length t.zl_im) 0.0 in
  let u_re = Array.make (Array.length t.zu_re) 0.0 in
  let u_im = Array.make (Array.length t.zu_im) 0.0 in
  let d_re = Array.make n 0.0 and d_im = Array.make n 0.0 in
  let xre = Array.make n 0.0 and xim = Array.make n 0.0 in
  let mark = Array.make n (-1) in
  for k = 0 to n - 1 do
    (* the column's pattern in pivot coordinates: U rows, k, L rows *)
    for p = t.zu_colptr.(k) to t.zu_colptr.(k + 1) - 1 do
      let i = t.zu_rowind.(p) in
      xre.(i) <- 0.0;
      xim.(i) <- 0.0;
      mark.(i) <- k
    done;
    xre.(k) <- 0.0;
    xim.(k) <- 0.0;
    mark.(k) <- k;
    for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
      let i = t.zl_rowind.(p) in
      xre.(i) <- 0.0;
      xim.(i) <- 0.0;
      mark.(i) <- k
    done;
    (* scatter the shifted column s*e - a *)
    let jcol = t.zq.(k) in
    for p = m.colptr.(jcol) to m.colptr.(jcol + 1) - 1 do
      let i = t.zpinv.(m.rowind.(p)) in
      if mark.(i) <> k then
        invalid_arg "Shifted.zreplay: matrix pattern differs from the template";
      xre.(i) <- (sre *. m.e_coef.(p)) -. m.a_coef.(p);
      xim.(i) <- sim *. m.e_coef.(p)
    done;
    (* eliminate with the already-final L columns, ascending pivot order *)
    for p = t.zu_colptr.(k) to t.zu_colptr.(k + 1) - 1 do
      let j = t.zu_rowind.(p) in
      let xjre = xre.(j) and xjim = xim.(j) in
      u_re.(p) <- xjre;
      u_im.(p) <- xjim;
      if xjre <> 0.0 || xjim <> 0.0 then
        for lp = t.zl_colptr.(j) to t.zl_colptr.(j + 1) - 1 do
          let r = t.zl_rowind.(lp) in
          let lre = l_re.(lp) and lim = l_im.(lp) in
          xre.(r) <- xre.(r) -. ((lre *. xjre) -. (lim *. xjim));
          xim.(r) <- xim.(r) -. ((lre *. xjim) +. (lim *. xjre))
        done
    done;
    (* reused pivot: check it has not gone stale relative to its column *)
    let pre = xre.(k) and pim = xim.(k) in
    let pmag = Float.hypot pre pim in
    let colmax = ref pmag in
    for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
      let i = t.zl_rowind.(p) in
      let mag = Float.hypot xre.(i) xim.(i) in
      if mag > !colmax then colmax := mag
    done;
    if pmag <= refactor_pivot_tol *. !colmax || pmag = 0.0 then raise Stale_pivot;
    d_re.(k) <- pre;
    d_im.(k) <- pim;
    (* L column entries divided by the pivot (Smith's division, inline) *)
    if Float.abs pre >= Float.abs pim then begin
      let r = pim /. pre in
      let d = pre +. (r *. pim) in
      for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
        let i = t.zl_rowind.(p) in
        let nre = xre.(i) and nim = xim.(i) in
        l_re.(p) <- (nre +. (r *. nim)) /. d;
        l_im.(p) <- (nim -. (r *. nre)) /. d
      done
    end
    else begin
      let r = pre /. pim in
      let d = pim +. (r *. pre) in
      for p = t.zl_colptr.(k) to t.zl_colptr.(k + 1) - 1 do
        let i = t.zl_rowind.(p) in
        let nre = xre.(i) and nim = xim.(i) in
        l_re.(p) <- ((r *. nre) +. nim) /. d;
        l_im.(p) <- ((r *. nim) -. nre) /. d
      done
    end
  done;
  { t with zl_re = l_re; zl_im = l_im; zu_re = u_re; zu_im = u_im; zd_re = d_re; zd_im = d_im }

let refactor_z (m : multi) (s : Complex.t) : zfactor =
  try zreplay m s
  with Stale_pivot ->
    (* fresh pivot search at this shift; still raises
       Sparse_lu.C.Singular if (sE - A) is genuinely singular *)
    factor_at ~colptr:m.colptr ~rowind:m.rowind ~e_coef:m.e_coef ~a_coef:m.a_coef m.tz.zq s

(* Forward/backward substitution on the unboxed factor for one real
   right-hand-side column, into the caller's float workspaces. *)
let zsolve_col (f : zfactor) (b : Pmtbr_la.Mat.t) jcol (wre : float array) (wim : float array)
    =
  let n = f.zn in
  (* w = P b *)
  for i = 0 to n - 1 do
    wre.(f.zpinv.(i)) <- Pmtbr_la.Mat.get b i jcol;
    wim.(f.zpinv.(i)) <- 0.0
  done;
  (* L w = w (unit diagonal) *)
  for k = 0 to n - 1 do
    let ykre = wre.(k) and ykim = wim.(k) in
    if ykre <> 0.0 || ykim <> 0.0 then
      for p = f.zl_colptr.(k) to f.zl_colptr.(k + 1) - 1 do
        let r = f.zl_rowind.(p) in
        let lre = f.zl_re.(p) and lim = f.zl_im.(p) in
        wre.(r) <- wre.(r) -. ((lre *. ykre) -. (lim *. ykim));
        wim.(r) <- wim.(r) -. ((lre *. ykim) +. (lim *. ykre))
      done
  done;
  (* U w = w *)
  for k = n - 1 downto 0 do
    let nre = wre.(k) and nim = wim.(k) in
    let dre = f.zd_re.(k) and dim = f.zd_im.(k) in
    let ykre, ykim =
      if Float.abs dre >= Float.abs dim then begin
        let r = dim /. dre in
        let d = dre +. (r *. dim) in
        ((nre +. (r *. nim)) /. d, (nim -. (r *. nre)) /. d)
      end
      else begin
        let r = dre /. dim in
        let d = dim +. (r *. dre) in
        (((r *. nre) +. nim) /. d, ((r *. nim) -. nre) /. d)
      end
    in
    wre.(k) <- ykre;
    wim.(k) <- ykim;
    if ykre <> 0.0 || ykim <> 0.0 then
      for p = f.zu_colptr.(k) to f.zu_colptr.(k + 1) - 1 do
        let r = f.zu_rowind.(p) in
        let ure = f.zu_re.(p) and uim = f.zu_im.(p) in
        wre.(r) <- wre.(r) -. ((ure *. ykre) -. (uim *. ykim));
        wim.(r) <- wim.(r) -. ((ure *. ykim) +. (uim *. ykre))
      done
  done

let zsolve_dense (f : zfactor) (b : Pmtbr_la.Mat.t) : Complex.t array array =
  let n = f.zn in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  Array.init b.Pmtbr_la.Mat.cols (fun jcol ->
      zsolve_col f b jcol wre wim;
      (* x = Q w: undo the column permutation while boxing the output *)
      let x = Array.make n Complex.zero in
      for k = 0 to n - 1 do
        x.(f.zq.(k)) <- { Complex.re = wre.(k); im = wim.(k) }
      done;
      x)

(* (sE - A)^H x = b for real b: conj ((sE - A)^T conj x) = b, so run the
   transposed solve on the (real) rhs and conjugate the result. *)
let zsolve_hermitian_col (f : zfactor) (b : Pmtbr_la.Mat.t) jcol (wre : float array)
    (wim : float array) =
  let n = f.zn in
  (* w = Q^T b *)
  for k = 0 to n - 1 do
    wre.(k) <- Pmtbr_la.Mat.get b f.zq.(k) jcol;
    wim.(k) <- 0.0
  done;
  (* U^T w = w, ascending *)
  for k = 0 to n - 1 do
    let accre = ref wre.(k) and accim = ref wim.(k) in
    for p = f.zu_colptr.(k) to f.zu_colptr.(k + 1) - 1 do
      let r = f.zu_rowind.(p) in
      let ure = f.zu_re.(p) and uim = f.zu_im.(p) in
      accre := !accre -. ((ure *. wre.(r)) -. (uim *. wim.(r)));
      accim := !accim -. ((ure *. wim.(r)) +. (uim *. wre.(r)))
    done;
    let nre = !accre and nim = !accim in
    let dre = f.zd_re.(k) and dim = f.zd_im.(k) in
    if Float.abs dre >= Float.abs dim then begin
      let r = dim /. dre in
      let d = dre +. (r *. dim) in
      wre.(k) <- (nre +. (r *. nim)) /. d;
      wim.(k) <- (nim -. (r *. nre)) /. d
    end
    else begin
      let r = dre /. dim in
      let d = dim +. (r *. dre) in
      wre.(k) <- ((r *. nre) +. nim) /. d;
      wim.(k) <- ((r *. nim) -. nre) /. d
    end
  done;
  (* L^T w = w (unit diagonal), descending *)
  for k = n - 1 downto 0 do
    let accre = ref wre.(k) and accim = ref wim.(k) in
    for p = f.zl_colptr.(k) to f.zl_colptr.(k + 1) - 1 do
      let r = f.zl_rowind.(p) in
      let lre = f.zl_re.(p) and lim = f.zl_im.(p) in
      accre := !accre -. ((lre *. wre.(r)) -. (lim *. wim.(r)));
      accim := !accim -. ((lre *. wim.(r)) +. (lim *. wre.(r)))
    done;
    wre.(k) <- !accre;
    wim.(k) <- !accim
  done

let zsolve_hermitian_dense (f : zfactor) (b : Pmtbr_la.Mat.t) : Complex.t array array =
  let n = f.zn in
  let wre = Array.make n 0.0 and wim = Array.make n 0.0 in
  Array.init b.Pmtbr_la.Mat.cols (fun jcol ->
      zsolve_hermitian_col f b jcol wre wim;
      (* x_i = conj w_{pinv i}: undo the row permutation of the transposed
         system and apply the outer conjugation in one pass *)
      let x = Array.make n Complex.zero in
      for i = 0 to n - 1 do
        x.(i) <- { Complex.re = wre.(f.zpinv.(i)); im = -.wim.(f.zpinv.(i)) }
      done;
      x)
