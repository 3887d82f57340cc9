(** Fill-reducing column orderings computed on the symmetrised nonzero
    pattern of a square sparse matrix.  A permutation [p] means "eliminate
    original index [p.(k)] at step [k]". *)

type scheme =
  | Natural  (** identity ordering *)
  | Rcm  (** reverse Cuthill-McKee: bandwidth reduction *)
  | Min_degree  (** approximate minimum degree: fill reduction *)
  | Given of int array
      (** a precomputed permutation, reused verbatim — this is how a
          symbolic analysis done once per system is replayed across the
          many shifted factorisations of a multi-point sweep *)

val natural : int -> int array
(** Identity permutation. *)

val rcm : int array -> int array -> int -> int array
(** [rcm colptr rowind n] is the reverse Cuthill-McKee order of the pattern
    given in CSC arrays.  Handles disconnected graphs.  Bandwidth, and so
    fill, grows with the shorter side of a 2-D mesh. *)

val min_degree : int array -> int array -> int -> int array
(** [min_degree colptr rowind n] is an approximate-minimum-degree order
    (Amestoy-Davis-Duff) of the symmetrised pattern: quotient-graph
    elimination with element absorption, supervariables, mass elimination
    and approximate external degrees, nodes of degree above
    [max 16 (10 sqrt n)] ordered last.  Time O(nnz) per pivot step in the
    worst case and close to O(nnz) overall on circuit graphs (milliseconds
    for the 6400-state mesh); memory O(nnz + n).  Deterministic: the order
    depends on the pattern only. *)

val compute : scheme -> int array -> int array -> int -> int array
(** Dispatch on the scheme.
    @raise Invalid_argument when a [Given] array is not a permutation of
    [0 .. n-1] (checked in O(n)). *)
