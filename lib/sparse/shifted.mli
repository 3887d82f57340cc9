(** Factorisation of the shifted pencil [(sE - A)] for complex [s],
    assembled from real triplet accumulators.  This is the inner kernel of
    PMTBR: one complex sparse factorisation per frequency sample.

    Every factor is held unboxed (re/im float planes) and every column
    order defaults to {!Ordering.Min_degree}, which leaves less fill than
    reverse Cuthill-McKee on every mesh the benchmarks use: about 3x less
    on an 80x80 mesh, where the RCM band grows with the mesh side, and
    5-25% less on 4- and 8-wide strips, whose band is narrow anyway. *)

type pencil
(** The pair (E, A) with an agreed square dimension. *)

val pencil : e:Triplet.t -> a:Triplet.t -> pencil
(** Bundle the two stamped matrices; the pencil dimension is the largest of
    their dimensions. *)

type zfactor = private {
  zn : int;
  zl_colptr : int array;
  zl_rowind : int array;
  zl_re : float array;
  zl_im : float array;
  zu_colptr : int array;
  zu_rowind : int array;
  zu_re : float array;
  zu_im : float array;
  zd_re : float array;
  zd_im : float array;
  zpinv : int array;
  zq : int array;
}
(** A complex sparse LU [P (sE - A) Q = L U] with values held in parallel
    re/im float arrays instead of boxed [Complex.t] records, laid out like
    {!Sparse_lu.S.raw}: L unit-lower (diagonal implicit) and U split into
    its strict upper part plus the diagonal [zd_re]/[zd_im], both in pivot
    coordinates, U columns in ascending pivot order; [zpinv] maps original
    rows to pivot positions and [zq] lists the original column eliminated
    at each step.  Read-only: factors replayed from one template share its
    structure arrays. *)

val zfactorize :
  colptr:int array -> rowind:int array -> re:float array -> im:float array -> int array -> zfactor
(** [zfactorize ~colptr ~rowind ~re ~im q] factors the square complex CSC
    matrix whose values are split into the planes [re]/[im], eliminating
    original column [q.(k)] at step [k] with partial row pivoting
    (left-looking Gilbert-Peierls).  Bitwise-identical to
    [Sparse_lu.C.factorize ~ordering:(Ordering.Given q)] on the same
    matrix, at no allocation per entry.
    @raise Sparse_lu.C.Singular when a column has no nonzero pivot.
    @raise Invalid_argument when [q] is not a permutation of the
    columns. *)

val nnz : zfactor -> int
(** Nonzeros in L + U (including the unit diagonal), a fill measure. *)

val factorize : ?ordering:Ordering.scheme -> pencil -> Complex.t -> zfactor
(** [factorize p s] factors [(sE - A)] with the given fill-reducing
    ordering (default {!Ordering.Min_degree}).
    @raise Sparse_lu.C.Singular if the pencil is singular at [s]. *)

type multi
(** A multi-shift handle: the union nonzero pattern of [(sE - A)] with
    separate E/A coefficient planes, the fill-reducing ordering, and a
    template factorisation — everything whose cost is independent of the
    particular shift, paid once per system. *)

val prepare : ?ordering:Ordering.scheme -> pencil -> template:Complex.t -> multi
(** [prepare p ~template] assembles the shared pattern, computes the
    ordering (default {!Ordering.Min_degree}), and factors
    [(template*E - A)] with {!zfactorize} as the structural template for
    all later shifts.  Nothing is boxed per entry: above a few hundred
    states its arrays go straight to the major heap and the minor-heap
    traffic is a few words per call.
    @raise Sparse_lu.C.Singular if the pencil is singular at [template]. *)

val refactor_z : multi -> Complex.t -> zfactor
(** [refactor_z m s] factors [(sE - A)] by a float-only replay of the
    template elimination — same column order, pivot sequence and L/U
    structure, numeric work only, O(1) minor-heap words (the complex
    matrix is never materialised).  When a reused pivot degrades past
    [1e-10] relative to its column it falls back to a fresh pivoting
    {!zfactorize} in the template's column order; raises
    [Sparse_lu.C.Singular] only when the shifted pencil is genuinely
    singular. *)

val zsolve_dense : zfactor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [zsolve_dense f b] solves [(sE - A) X = B] for a dense real [B]; one
    complex column per column of [B]. *)

val zsolve_hermitian_dense : zfactor -> Pmtbr_la.Mat.t -> Complex.t array array
(** [zsolve_hermitian_dense f b] solves [(sE - A)^H X = B] on the same
    factor; used for the observability samples of the cross-Gramian
    method. *)
