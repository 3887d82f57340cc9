(* Fill-reducing column orderings computed on the symmetrised nonzero
   pattern of a square sparse matrix.  A permutation [p] means "eliminate
   original index p.(k) at step k". *)

(* Pattern of A + A^T without the diagonal and without duplicates, as CSC
   arrays [(ptr, idx)]: the undirected graph every symmetric ordering
   works on. *)
let symmetric_pattern (colptr : int array) (rowind : int array) n =
  let cnt = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i <> j then begin
        cnt.(i + 1) <- cnt.(i + 1) + 1;
        cnt.(j + 1) <- cnt.(j + 1) + 1
      end
    done
  done;
  for j = 0 to n - 1 do
    cnt.(j + 1) <- cnt.(j + 1) + cnt.(j)
  done;
  let idx = Array.make cnt.(n) 0 in
  let fill = Array.sub cnt 0 n in
  for j = 0 to n - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i <> j then begin
        idx.(fill.(i)) <- j;
        fill.(i) <- fill.(i) + 1;
        idx.(fill.(j)) <- i;
        fill.(j) <- fill.(j) + 1
      end
    done
  done;
  (* drop repeated neighbours in place *)
  let ptr = Array.make (n + 1) 0 in
  let seen = Array.make n (-1) in
  let q = ref 0 in
  for j = 0 to n - 1 do
    ptr.(j) <- !q;
    for p = cnt.(j) to cnt.(j + 1) - 1 do
      let i = idx.(p) in
      if seen.(i) <> j then begin
        seen.(i) <- j;
        idx.(!q) <- i;
        incr q
      end
    done
  done;
  ptr.(n) <- !q;
  (ptr, idx)

let natural n = Array.init n (fun i -> i)

(* Reverse Cuthill-McKee: BFS from a minimum-degree start node, neighbours
   visited in increasing degree, final order reversed.  Reduces bandwidth,
   which bounds fill for the banded-ish circuit matrices. *)
let rcm (colptr : int array) (rowind : int array) n =
  let ptr, idx = symmetric_pattern colptr rowind n in
  let degree i = ptr.(i + 1) - ptr.(i) in
  let visited = Array.make n false in
  let order = ref [] in
  let count = ref 0 in
  while !count < n do
    (* start a new component at its min-degree node *)
    let start = ref (-1) in
    for i = n - 1 downto 0 do
      if (not visited.(i)) && (!start < 0 || degree i < degree !start) then start := i
    done;
    let queue = Queue.create () in
    Queue.add !start queue;
    visited.(!start) <- true;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      order := u :: !order;
      incr count;
      let nbrs =
        List.sort compare (Array.to_list (Array.sub idx ptr.(u) (degree u)))
        |> List.filter (fun v -> not visited.(v))
        |> List.sort (fun a b -> compare (degree a) (degree b))
      in
      List.iter
        (fun v ->
          visited.(v) <- true;
          Queue.add v queue)
        nbrs
    done
  done;
  (* !order is already the reversed BFS order *)
  Array.of_list !order

let flip i = -i - 2

(* Reset the element marks once [mark + lemax] could overflow; returns the
   mark to use next.  Every live entry of [w] is below the result. *)
let wclear mark lemax (w : int array) n =
  if mark < 2 || mark + lemax < 0 then begin
    for k = 0 to n - 1 do
      if w.(k) <> 0 then w.(k) <- 1
    done;
    2
  end
  else mark

(* Depth-first postorder of the tree rooted at [j] ([head]/[next] list the
   children); writes from [post.(k)] on and returns the next free slot. *)
let tdfs j k (head : int array) (next : int array) (post : int array) (stack : int array) =
  let top = ref 0 and k = ref k in
  stack.(0) <- j;
  while !top >= 0 do
    let p = stack.(!top) in
    let i = head.(p) in
    if i = -1 then begin
      decr top;
      post.(!k) <- p;
      incr k
    end
    else begin
      head.(p) <- next.(i);
      incr top;
      stack.(!top) <- i
    end
  done;
  !k

(* Approximate minimum degree (Amestoy, Davis and Duff) on the quotient
   graph of A + A^T, following the structure of CSparse's cs_amd.  Each
   eliminated node becomes an element whose node list stands for the clique
   it would create, so the graph never grows past its initial size plus
   some elbow room; elements swallowed by a newer one are absorbed,
   indistinguishable nodes are merged into supervariables (found by
   hashing), nodes whose only neighbours sit in the new element are
   eliminated with it, and each node's external degree is bounded from the
   set differences |Le \ Lk| instead of being recounted.  Nodes of degree
   above max(16, 10 sqrt n) are ordered last.  Degree lists are LIFO and no
   step depends on anything but the pattern, so the order is
   deterministic. *)
let min_degree (colptr : int array) (rowind : int array) n =
  if n = 0 then [||]
  else begin
    let cp, ci0 = symmetric_pattern colptr rowind n in
    let cnz = ref cp.(n) in
    let dense = min (n - 2) (max 16 (int_of_float (10.0 *. sqrt (float_of_int n)))) in
    let nzmax = !cnz + (!cnz / 5) + (2 * n) in
    let ci = Array.make nzmax 0 in
    Array.blit ci0 0 ci 0 !cnz;
    let len = Array.make (n + 1) 0 in
    let nv = Array.make (n + 1) 1 in
    let next = Array.make (n + 1) (-1) in
    let head = Array.make (n + 1) (-1) in
    let elen = Array.make (n + 1) 0 in
    let degree = Array.make (n + 1) 0 in
    let w = Array.make (n + 1) 1 in
    let hhead = Array.make (n + 1) (-1) in
    let last = Array.make (n + 1) (-1) in
    for k = 0 to n - 1 do
      len.(k) <- cp.(k + 1) - cp.(k);
      degree.(k) <- len.(k)
    done;
    let mark = ref (wclear 0 0 w n) in
    (* n is the element that absorbs the dense nodes *)
    elen.(n) <- -2;
    cp.(n) <- -1;
    w.(n) <- 0;
    let nel = ref 0 in
    for i = 0 to n - 1 do
      let d = degree.(i) in
      if d = 0 then begin
        (* isolated: an element of its own, a root of the assembly tree *)
        elen.(i) <- -2;
        incr nel;
        cp.(i) <- -1;
        w.(i) <- 0
      end
      else if d > dense then begin
        nv.(i) <- 0;
        elen.(i) <- -1;
        incr nel;
        cp.(i) <- flip n;
        nv.(n) <- nv.(n) + 1
      end
      else begin
        if head.(d) <> -1 then last.(head.(d)) <- i;
        next.(i) <- head.(d);
        head.(d) <- i
      end
    done;
    let mindeg = ref 0 and lemax = ref 0 in
    while !nel < n do
      (* select a node of minimum approximate degree *)
      while head.(!mindeg) = -1 do
        incr mindeg
      done;
      let k = head.(!mindeg) in
      if next.(k) <> -1 then last.(next.(k)) <- -1;
      head.(!mindeg) <- next.(k);
      let elenk = elen.(k) in
      let nvk = ref nv.(k) in
      nel := !nel + !nvk;
      (* compact the live lists to the front when the new element may not
         fit behind them *)
      if elenk > 0 && !cnz + !mindeg >= nzmax then begin
        for j = 0 to n - 1 do
          let p = cp.(j) in
          if p >= 0 then begin
            cp.(j) <- ci.(p);
            ci.(p) <- flip j
          end
        done;
        let q = ref 0 and p = ref 0 in
        while !p < !cnz do
          let j = flip ci.(!p) in
          incr p;
          if j >= 0 then begin
            ci.(!q) <- cp.(j);
            cp.(j) <- !q;
            incr q;
            for _ = 0 to len.(j) - 2 do
              ci.(!q) <- ci.(!p);
              incr q;
              incr p
            done
          end
        done;
        cnz := !q
      end;
      (* construct the new element Lk: the live nodes of k and of every
         element adjacent to k, which are absorbed into k *)
      let dk = ref 0 in
      nv.(k) <- - !nvk;
      let p = ref cp.(k) in
      let pk1 = if elenk = 0 then !p else !cnz in
      let pk2 = ref pk1 in
      for k1 = 1 to elenk + 1 do
        let e = ref k and pj = ref !p and ln = ref (len.(k) - elenk) in
        if k1 <= elenk then begin
          e := ci.(!p);
          incr p;
          pj := cp.(!e);
          ln := len.(!e)
        end;
        for _ = 1 to !ln do
          let i = ci.(!pj) in
          incr pj;
          let nvi = nv.(i) in
          if nvi > 0 then begin
            dk := !dk + nvi;
            nv.(i) <- -nvi;
            ci.(!pk2) <- i;
            incr pk2;
            if next.(i) <> -1 then last.(next.(i)) <- last.(i);
            if last.(i) <> -1 then next.(last.(i)) <- next.(i) else head.(degree.(i)) <- next.(i)
          end
        done;
        if !e <> k then begin
          cp.(!e) <- flip k;
          w.(!e) <- 0
        end
      done;
      if elenk <> 0 then cnz := !pk2;
      degree.(k) <- !dk;
      cp.(k) <- pk1;
      len.(k) <- !pk2 - pk1;
      elen.(k) <- -2;
      (* set differences: w.(e) - mark = |Le \ Lk| for every element e
         adjacent to a node of Lk *)
      mark := wclear !mark !lemax w n;
      for pk = pk1 to !pk2 - 1 do
        let i = ci.(pk) in
        let eln = elen.(i) in
        if eln > 0 then begin
          let nvi = -nv.(i) in
          let wnvi = !mark - nvi in
          for p = cp.(i) to cp.(i) + eln - 1 do
            let e = ci.(p) in
            if w.(e) >= !mark then w.(e) <- w.(e) - nvi
            else if w.(e) <> 0 then w.(e) <- degree.(e) + wnvi
          done
        end
      done;
      (* degree update, with aggressive absorption of elements inside Lk
         and mass elimination of nodes left with no outside neighbour *)
      for pk = pk1 to !pk2 - 1 do
        let i = ci.(pk) in
        let p1 = cp.(i) in
        let p2 = p1 + elen.(i) - 1 in
        let pn = ref p1 in
        let h = ref 0 and d = ref 0 in
        for p = p1 to p2 do
          let e = ci.(p) in
          if w.(e) <> 0 then begin
            let dext = w.(e) - !mark in
            if dext > 0 then begin
              d := !d + dext;
              ci.(!pn) <- e;
              incr pn;
              h := !h + e
            end
            else begin
              cp.(e) <- flip k;
              w.(e) <- 0
            end
          end
        done;
        elen.(i) <- !pn - p1 + 1;
        let p3 = !pn and p4 = p1 + len.(i) in
        for p = p2 + 1 to p4 - 1 do
          let j = ci.(p) in
          let nvj = nv.(j) in
          if nvj > 0 then begin
            d := !d + nvj;
            ci.(!pn) <- j;
            incr pn;
            h := !h + j
          end
        done;
        if !d = 0 then begin
          cp.(i) <- flip k;
          let nvi = -nv.(i) in
          dk := !dk - nvi;
          nvk := !nvk + nvi;
          nel := !nel + nvi;
          nv.(i) <- 0;
          elen.(i) <- -1
        end
        else begin
          degree.(i) <- min degree.(i) !d;
          (* k becomes the first element of i *)
          ci.(!pn) <- ci.(p3);
          ci.(p3) <- ci.(p1);
          ci.(p1) <- k;
          len.(i) <- !pn - p1 + 1;
          let h = abs !h mod n in
          next.(i) <- hhead.(h);
          hhead.(h) <- i;
          last.(i) <- h
        end
      done;
      degree.(k) <- !dk;
      lemax := max !lemax !dk;
      mark := wclear (!mark + !lemax) !lemax w n;
      (* supervariables: nodes of Lk with identical lists (same hash bucket
         first) are merged into one *)
      for pk = pk1 to !pk2 - 1 do
        let i0 = ci.(pk) in
        if nv.(i0) < 0 then begin
          let h = last.(i0) in
          let i = ref hhead.(h) in
          hhead.(h) <- -1;
          while !i <> -1 && next.(!i) <> -1 do
            let ln = len.(!i) and eln = elen.(!i) in
            for p = cp.(!i) + 1 to cp.(!i) + ln - 1 do
              w.(ci.(p)) <- !mark
            done;
            let jlast = ref !i and j = ref next.(!i) in
            while !j <> -1 do
              let ok = ref (len.(!j) = ln && elen.(!j) = eln) in
              let p = ref (cp.(!j) + 1) in
              while !ok && !p <= cp.(!j) + ln - 1 do
                if w.(ci.(!p)) <> !mark then ok := false;
                incr p
              done;
              if !ok then begin
                cp.(!j) <- flip !i;
                nv.(!i) <- nv.(!i) + nv.(!j);
                nv.(!j) <- 0;
                elen.(!j) <- -1;
                j := next.(!j);
                next.(!jlast) <- !j
              end
              else begin
                jlast := !j;
                j := next.(!j)
              end
            done;
            i := next.(!i);
            incr mark
          done
        end
      done;
      (* finalise Lk and put its nodes back in the degree lists *)
      let p = ref pk1 in
      for pk = pk1 to !pk2 - 1 do
        let i = ci.(pk) in
        let nvi = -nv.(i) in
        if nvi > 0 then begin
          nv.(i) <- nvi;
          let d = min (degree.(i) + !dk - nvi) (n - !nel - nvi) in
          if head.(d) <> -1 then last.(head.(d)) <- i;
          next.(i) <- head.(d);
          last.(i) <- -1;
          head.(d) <- i;
          mindeg := min !mindeg d;
          degree.(i) <- d;
          ci.(!p) <- i;
          incr p
        end
      done;
      nv.(k) <- !nvk;
      len.(k) <- !p - pk1;
      if len.(k) = 0 then begin
        cp.(k) <- -1;
        w.(k) <- 0
      end;
      if elenk <> 0 then cnz := !p
    done;
    (* postorder the assembly tree: absorbed nodes and elements hang off
       their absorber, so each supervariable is ordered contiguously *)
    for i = 0 to n - 1 do
      cp.(i) <- flip cp.(i)
    done;
    Array.fill head 0 (n + 1) (-1);
    for j = n downto 0 do
      if nv.(j) <= 0 then begin
        next.(j) <- head.(cp.(j));
        head.(cp.(j)) <- j
      end
    done;
    for e = n downto 0 do
      if nv.(e) > 0 && cp.(e) <> -1 then begin
        next.(e) <- head.(cp.(e));
        head.(cp.(e)) <- e
      end
    done;
    let post = Array.make (n + 1) 0 in
    let k = ref 0 in
    for i = 0 to n do
      if cp.(i) = -1 then k := tdfs i !k head next post w
    done;
    (* the placeholder element n is the last root, so it closes the order *)
    Array.sub post 0 n
  end

type scheme = Natural | Rcm | Min_degree | Given of int array

let compute scheme colptr rowind n =
  match scheme with
  | Natural -> natural n
  | Rcm -> rcm colptr rowind n
  | Min_degree -> min_degree colptr rowind n
  | Given p ->
      if Array.length p <> n then invalid_arg "Ordering.compute: Given permutation has wrong length";
      let seen = Array.make n false in
      Array.iter
        (fun i ->
          if i < 0 || i >= n || seen.(i) then
            invalid_arg "Ordering.compute: Given is not a permutation of 0..n-1";
          seen.(i) <- true)
        p;
      Array.copy p
