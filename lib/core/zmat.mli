(** Assembly of the weighted, realified sample matrix [ZW].

    Each frequency point [s_k] contributes the columns of
    [sqrt w_k * (s_k E - A)^{-1} B].  Complex samples at [+j omega] also
    stand for their conjugates at [-j omega] (step 5 of Algorithm 1); since
    over the reals [span {z, conj z} = span {Re z, Im z}], the real and
    imaginary parts are stored as two real columns.  Points with
    numerically zero imaginary part contribute only their real columns.

    All [build*] functions run through {!Shift_engine}: one shared
    symbolic factorisation analysis, shifts distributed over [?workers]
    domains (default {!Pmtbr_la.Par_kernel.default_workers}), results
    identical for every worker count.

    The reduction pipelines run their samples through {!Sample_cache}
    sources instead (one cache source per builder below); these one-shot
    builders are retained as the reference paths the cache sources are
    property-tested bitwise-identical against. *)

open Pmtbr_la
open Pmtbr_lti

val is_effectively_real : Complex.t -> bool
(** Whether a sample point should be treated as real (one column per
    input). *)

val realify_block : weight:float -> Complex.t array array -> is_real:bool -> Mat.t
(** Weighted real column block for one solved sample. *)

val point_block : Dss.t -> rhs:Mat.t -> Sampling.point -> Mat.t
(** Solve [(sE - A) Z = rhs] at one point and realify — the legacy
    one-shot path with no factorisation reuse, kept as the benchmark
    baseline. *)

val build : ?workers:int -> Dss.t -> Sampling.point array -> Mat.t
(** Full [ZW] matrix with [B] as the right-hand side. *)

val build_rhs : ?workers:int -> Dss.t -> rhs:Mat.t -> Sampling.point array -> Mat.t
(** Like {!build} with one fixed arbitrary right-hand side. *)

val build_per_point : ?workers:int -> Dss.t -> (Sampling.point * Mat.t) list -> Mat.t
(** Like {!build} but with an arbitrary right-hand side per point, as used
    by the input-correlated variant where each point carries its own input
    draw. *)

val point_block_hermitian : Dss.t -> rhs:Mat.t -> Sampling.point -> Mat.t
(** Observability-side sample [(sE - A)^{-H} rhs] (one-shot path). *)

val build_left : ?workers:int -> Dss.t -> Sampling.point array -> Mat.t
(** Observability-side sample matrix with [C^T] as the right-hand side, for
    the cross-Gramian method. *)
