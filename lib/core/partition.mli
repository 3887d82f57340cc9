(** Nested-dissection partitioner over the MNA state graph — the front
    half of the hierarchical (domain-decomposed) reduction path.

    {!split} / {!split_auto} stamp the netlist once and dissect the state
    graph (symmetrized union pattern of E and A) recursively by vertex
    separators: each step removes one whole BFS level — chosen thin and
    balanced — so the two remaining sides share no entry, then recurses
    on each side.  The result is a partition {!tree} whose internal nodes
    carry separators and whose leaves are mutually decoupled interiors;
    the union of all separators is the global {e interface} set, and the
    assembled structure is block-bordered-diagonal: decoupled per-part
    interiors, per-part <-> interface couplings, and the interface block.
    Each interior is re-expressed as a standalone sub-netlist with
    interface nodes mapped to ground — an {e exact} reconstruction of the
    interior stamp (the grounded copy of a boundary element contributes
    the same diagonal entries; the dropped cross terms are exactly the
    coupling entries carried separately) — so subdomains are
    content-addressed by the same canonical-render hash the store uses
    for whole networks, and the part's local state order is the
    sub-netlist's own MNA order (shared sub-netlist hash implies shared
    sample columns).

    Every step is a pure function of the netlist and the options: vertex
    orderings break ties by global state index, and nothing consults
    worker counts — the foundation of {!Hier_reduce}'s bitwise
    worker-invariance contract. *)

open Pmtbr_la

type entry = int * int * float
(** One sparse coupling entry: (row, col, value) in the local index pair
    documented per field below. *)

type part = {
  states : int array;
      (** global state index of each local state, in local order *)
  sys : Pmtbr_lti.Dss.t;
      (** the interior block as a sparse descriptor system (stamped from
          [sub_netlist]; its B/C are empty — sampling uses [rhs]) *)
  sub_netlist : Pmtbr_circuit.Netlist.t;
      (** interior re-expressed with interface nodes grounded; its
          canonical render is the subdomain's content address *)
  rhs : Mat.t;
      (** sampling right-hand side: global port columns restricted to the
          interior plus the interface coupling directions, all-zero
          columns dropped *)
  e_ig : entry array;  (** E interior->interface: (local, interface-local, v) *)
  a_ig : entry array;  (** A interior->interface *)
  e_gi : entry array;  (** E interface->interior: (interface-local, local, v) *)
  a_gi : entry array;  (** A interface->interior *)
}

type tree =
  | Leaf of { part : int; size : int }
      (** index into [parts] and its interior state count *)
  | Node of { sep : int array; left : tree; right : tree }
      (** separator (ascending global state ids) between the two sides *)
(** The dissection tree.  Part ids are dense in left-subtree order;
    every interface state appears in exactly one [Node]'s separator. *)

type t = {
  parts : part array;  (** leaf interiors, in tree (left-to-right) order *)
  tree : tree;  (** the dissection tree over those leaves *)
  interface : int array;  (** global state ids of the interface, ascending *)
  e_gg : entry array;  (** interface block of E, interface-local indices *)
  a_gg : entry array;  (** interface block of A *)
  b : Mat.t;  (** global input map (n x p) *)
  c : Mat.t;  (** global output map (p x n) *)
  n : int;  (** global state count *)
  p : int;  (** port count *)
}

val split : parts:int -> Pmtbr_circuit.Netlist.t -> t
(** Partition a netlist into (at most) [parts] subdomains by recursive
    dissection with a leaf-count goal.  Every interface coupling column
    is kept in each part's sampling right-hand side.  Raises
    [Invalid_argument] on an empty netlist, [parts < 1], or if the block
    structure invariant fails (a cross-part entry between two interiors —
    a bug, not an input error). *)

val split_auto :
  max_states:int -> ?depth_cap:int -> Pmtbr_circuit.Netlist.t -> t
(** Partition by state budget: recurse while a side holds more than
    [max_states] states, under [depth_cap] (default 48) — the cap bounds
    the interface a pathological graph can accumulate, so a part may
    exceed the budget only when the cap or the graph (no interior BFS
    level to remove) stops the recursion first.  Same purity and
    coupling columns as {!split}.  Raises [Invalid_argument] on [max_states < 1]
    or [depth_cap < 0]. *)

val part_count : t -> int
val interface_count : t -> int

val part_sizes : t -> int array
(** Interior state count per part. *)

val tree_depth : t -> int
(** Depth of the dissection tree (0 for a single leaf). *)

val level_cuts : t -> (int * int) array
(** Per-level cut summary, root (level 0) first: (number of separators
    cut at this level, total separator states).  Length = {!tree_depth};
    the [--stats] per-level breakdown prints this. *)

val leaf_ancestors : t -> int list array
(** For each part (leaf), the global state ids of all ancestor
    separators — the interface states that part couples through.  The
    tree-invariant tests and the store's per-node warm logic read this. *)
