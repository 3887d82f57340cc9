(** Domain-parallel, cache-blocked dense kernels for the reduction stage.

    Home of the repository's one fork/join primitive, {!run_tasks}, and
    its sizing rule, {!pool_size}.  The dense reduction stage runs on it
    (GEMM/gram/mv panels, blocked Householder QR, round-robin one-sided
    Jacobi SVD) so the SVD/QR of the tall-skinny sample factors no longer
    caps the end-to-end speedup, and so do the shifted-solve, sweep and
    subdomain loops above it.

    {b Determinism contract} (the same one {!Pmtbr_core.Shift_engine}
    advertises): every kernel uses a fixed tile/panel/round decomposition
    that depends only on the operand shapes — never on the worker count or
    on scheduling — and each output element is accumulated in a fixed
    order by exactly one task.  Serial and parallel runs therefore produce
    bitwise-identical results for any [workers], which CI enforces.

    Moreover [mul], [gram] and [mv] replay the exact accumulation order of
    the naive {!Mat} kernels, so they are bitwise-equal to [Mat.mul],
    [Mat.gram] and [Mat.mv], and the blocked QR replays the exact
    reflector arithmetic of the classic unblocked Householder sweep.

    Kernels fall back to the plain serial loop when the operand is too
    small to amortise a domain spawn; the cutover depends only on the
    operand shape, so it cannot break worker-invariance. *)

val default_workers : unit -> int
(** The worker count {!pool_size} requests when [?workers] is omitted, in
    every layer: the value installed by {!set_default_workers}, else
    [Domain.recommended_domain_count ()]. *)

val set_default_workers : int option -> unit
(** Install a process-wide default worker count for every {!pool_size}
    call ([None] restores the hardware default).  The CLI [--workers] flag
    routes through here so one flag covers both the solve and reduction
    stages.
    Results are bitwise-identical for any setting.  Installing a
    multi-worker default on a host whose
    [Domain.recommended_domain_count] is 1 triggers
    {!warn_worker_collapse}. *)

val warn_worker_collapse :
  ?kind:[ `Creation | `Serialized ] -> context:string -> requested:int -> unit -> unit
(** Emit a one-line [stderr] warning (once per process {e per kind}) that
    a pool [requested > 1] workers but effectively ran on a single domain.
    [`Creation] (default): the pool collapsed to one domain when it was
    built — the host caps it.  [`Serialized]: the pool really spawned its
    workers, but every job drained onto one of them (jobs too coarse, or
    submitted one at a time) — {!Scheduler.stop} detects and reports this
    case from its per-worker job counts.  Results are never affected;
    callers invoke this only after deciding the pool really did run
    serially. *)

(** {1 Fork/join}

    The one fork/join every parallel layer runs on: the dense kernels
    below, the multi-shift solve loop ({!Pmtbr_core.Shift_engine}), the
    frequency sweep ({!Pmtbr_lti.Sweep_engine}) and the subdomain fan-out
    ({!Pmtbr_core.Hier_reduce}).  Only the daemon's long-lived connection
    pool ({!Scheduler}) spawns domains elsewhere. *)

val pool_size : ?workers:int -> ?oversubscribe:bool -> int -> int
(** The sizing rule for [n] tasks: an explicit [workers >= 1] wins, else
    {!default_workers}; the result is capped at
    [Domain.recommended_domain_count ()] unless [oversubscribe], then at
    [n], and is never below 1.  Pure — {!run_tasks} uses exactly this
    value as its pool size. *)

val run_tasks :
  ?workers:int ->
  ?oversubscribe:bool ->
  ?chunk:int ->
  context:string ->
  int ->
  (int -> 'a) ->
  'a array * float array
(** [run_tasks ~context n task] runs [task 0 .. task (n - 1)] on a pool of
    [pool_size ?workers ?oversubscribe n] domains: the calling domain is
    worker 0 and the others are spawned for this call.  Workers claim
    [chunk] (default 1) consecutive indices at a time from one atomic
    counter, so a slow task does not stall a static partition.  Returns
    the results in index order and each worker's busy seconds (one slot
    per pool worker).

    If tasks raise, the exception of the lowest failing index is
    re-raised once every worker has stopped; every lower index has run by
    then, so which exception surfaces never depends on the schedule.  A
    requested multi-worker pool that the hardware cap squeezes to one
    domain triggers {!warn_worker_collapse} with [context].  Calls may
    nest (a task may itself call [run_tasks]).  Raises [Invalid_argument]
    on [chunk < 1]. *)

val parallel_ranges : ?workers:int -> work:int -> int -> (int -> int -> unit) -> unit
(** [parallel_ranges ~work n f] partitions [0..n-1] into at most [workers]
    contiguous ranges and runs [f lo hi] on each as one {!run_tasks} task,
    in parallel when the estimated scalar-op count [work] is large enough
    to pay for domain spawns.  The pool is not capped at the hardware: an
    explicit [workers] is honoured as given.  [f] must write only to
    range-private slots.  The partition depends only on [n] and the
    resolved worker count; correctness (and bitwise output, provided
    [f]'s writes are disjoint and per-index deterministic) does not. *)

val dot : float array -> float array -> float
(** Cache-blocked dot product: per-block partial sums in index order,
    combined in block order — a pure function of the operand values and
    length.  Vectors that fit one block (length <= 4096) reduce to the
    plain sequential dot, bit for bit. *)

val mul : ?workers:int -> Mat.t -> Mat.t -> Mat.t
(** Tiled GEMM, parallel over row panels.  Bitwise-equal to {!Mat.mul}
    for any worker count (each output element accumulates over [k] in
    ascending order with the same zero-skip). *)

val gram : ?workers:int -> Mat.t -> Mat.t
(** [A^T A] without forming the transpose, parallel over column panels.
    Bitwise-equal to {!Mat.gram}. *)

val mv : ?workers:int -> Mat.t -> float array -> float array
(** Matrix-vector product, parallel over row panels.  Bitwise-equal to
    {!Mat.mv}. *)

(** {1 Blocked Householder QR} *)

type qr = {
  wf : Mat.t;
      (** packed factor: R on and above the diagonal, normalised reflector
          tails below it *)
  betas : float array;  (** reflector scalings, length [min m n] *)
}

val qr_factor : ?workers:int -> Mat.t -> qr
(** Panel-blocked Householder factorisation: reflectors are built serially
    within a panel, then applied to the trailing columns in parallel.
    Each trailing column receives every reflector in index order with the
    classic unblocked arithmetic, so the packed factor is bitwise-equal to
    the unblocked serial sweep for any worker count. *)

val qr_r : qr -> Mat.t
(** The [n x n] upper-triangular factor. *)

val qr_thin_q : ?workers:int -> ?cols:int -> qr -> Mat.t
(** Thin orthonormal factor: the first [cols] (default [min m n]) columns
    of Q, formed by applying the packed reflectors to columns of the
    identity — parallel over columns, each column bitwise-equal to the
    serial backward accumulation. *)

val qr_apply_q : ?workers:int -> qr -> Mat.t -> Mat.t
(** [qr_apply_q f x] is [Q * x] for [x] with [m] rows, or [Q_thin * x]
    (zero-padded implicitly) for [x] with [min m n] rows; parallel over
    columns of [x].  Cheaper than materialising the thin Q when [x] is
    consumed once. *)

val qr_apply_qt : ?workers:int -> qr -> Mat.t -> Mat.t
(** [qr_apply_qt f x] is [Q^T * x] for [x] with [m] rows ([m x p]
    result; rows [0 .. min m n - 1] are [Q_thin^T x]); parallel over
    columns of [x]. *)

val qr_apply_qt_vec : qr -> float array -> float array
(** {!qr_apply_qt} on a single vector. *)

(** {1 Round-robin one-sided Jacobi} *)

val jacobi_rounds :
  ?workers:int ->
  ?v:float array array ->
  threshold:float ->
  max_sweeps:int ->
  rows:int ->
  float array array ->
  unit
(** [jacobi_rounds ~threshold ~max_sweeps ~rows w] runs one-sided Jacobi
    (Hestenes) on the columns [w] (each of length [rows]), optionally
    accumulating right-hand rotations into the columns [v], using
    the fixed round-robin (tournament) rotation schedule: each round
    rotates disjoint column pairs, so the pairs of a round are processed
    in parallel with bitwise worker-invariance; rounds and sweeps are
    sequential.  Stops when a full sweep applies no rotation (every pair
    orthogonal to [threshold] relative accuracy) or after [max_sweeps]
    sweeps.  The rotation arithmetic is exactly that of the serial cyclic
    sweep in {!Svd}; only the pair order differs. *)
