(** Left-looking sparse LU with partial pivoting (Gilbert-Peierls), generic
    over the scalar — the workhorse behind every [(sE - A)] solve in PMTBR.
    The nonzero pattern of each column's triangular solve is found by
    depth-first search on the graph of the computed L columns, so the
    numeric work is proportional to the arithmetic performed. *)

open Pmtbr_la

module type S = sig
  type elt

  module M : Csc.S with type elt = elt

  exception Singular of int
  (** Raised with the failing column when no nonzero pivot exists. *)

  type factor
  (** A computed factorisation [P A Q = L U]. *)

  val factorize : ?ordering:Ordering.scheme -> M.t -> factor
  (** Factor a square CSC matrix with the given column pre-ordering
      (default {!Ordering.Natural}) and partial row pivoting. *)

  val refactorize : ?pivot_tol:float -> factor -> M.t -> factor
  (** [refactorize tpl a] replays the elimination of the template factor on
      a matrix with the {e same sparsity pattern} but new values: same
      column ordering, same pivot sequence, same L/U structure, numeric
      work only.  This is the per-shift fast path of a multi-shift sweep —
      the symbolic analysis (ordering, reachability, fill) is paid once by
      the template.

      Reused pivots are not re-chosen, so [Singular k] is raised when a
      reused pivot magnitude drops to [pivot_tol] (default [0.]) relative
      to the largest entry of its eliminated column (exact zeros always
      raise); callers should then fall back to {!factorize}.
      @raise Invalid_argument when the pattern of [a] differs from the
      template's. *)

  val col_ordering : factor -> int array
  (** The column elimination order used by the factor (a copy). *)

  type raw = {
    raw_n : int;
    raw_l_colptr : int array;
    raw_l_rowind : int array;
    raw_l_values : elt array;
    raw_u_colptr : int array;
    raw_u_rowind : int array;
    raw_u_values : elt array;
    raw_u_diag : elt array;
    raw_pinv : int array;
    raw_q : int array;
  }
  (** The factor laid bare: [P A Q = L U] with L unit-lower (diagonal
      implicit) and U split into its strict upper part plus [raw_u_diag],
      both in pivot coordinates; [raw_pinv] maps original rows to pivot
      positions and [raw_q] lists the original column eliminated at each
      step.  U columns are stored in ascending pivot order. *)

  val raw : factor -> raw
  (** Read-only structural view sharing the factor's arrays (no copies);
      the test suite compares {!Shifted.zfactorize} against it field by
      field.  Mutating the arrays corrupts the factor. *)

  val nnz : factor -> int
  (** Nonzeros in L + U (including the unit diagonal), a fill measure. *)

  val solve_vec : factor -> elt array -> elt array
  (** Solve [A x = b]. *)

  val solve_transposed_vec : factor -> elt array -> elt array
  (** Solve [A^T x = b] with the same factorisation. *)

  val solve_dense : factor -> M.t -> elt array array
  (** Solve for each column of a sparse right-hand side. *)
end

module Make (K : Scalar.S) : S with type elt = K.t

module R : S with type elt = float and module M = Csc.R
module C : S with type elt = Complex.t and module M = Csc.C
