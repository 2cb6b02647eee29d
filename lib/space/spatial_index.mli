(** Spatial access methods for the evaluation engine: an STR-bulk-loaded
    R-tree and a uniform-grid spatial hash over axis-aligned boxes. Both
    support the same operations — insert/delete (for incremental
    maintenance), box-range and k-nearest queries, and box-overlap joins
    — so the engine can pick a structure per workload and differential
    tests can compare them against brute force.

    Entries are [box * value] pairs; deletion matches values by physical
    equality, so the caller passes the very value it inserted (the
    engine's values are fact ids, for which that is plain equality). *)

type box = { minx : float; miny : float; maxx : float; maxy : float }

val box : float -> float -> float -> float -> box
(** [box minx miny maxx maxy]. Raises [Invalid_argument] when a max is
    below the corresponding min or any coordinate is NaN. *)

val point_box : float -> float -> box
(** The degenerate box of a single point. *)

val pad : box -> float -> box
(** [pad b eps] grows [b] by [eps] on every side — the ±eps probe box
    covering a metric ball of radius [eps] under any metric whose balls
    are contained in the Chebyshev ball (euclidean-like metrics). *)

val box_of_region : Region.t -> box option
(** {!Region.bounding_box} repackaged; [None] for provably empty
    intersections. *)

val box_overlap : box -> box -> bool
(** Closed-box intersection test (shared edges count as overlap). *)

val box_dist : box -> float * float -> float
(** Minimum euclidean distance from a point to a (closed) box; [0.] for
    interior points. *)

type kind =
  | Rtree  (** STR-packed R-tree, fan-out 8, min fill 3 *)
  | Grid of float  (** uniform grid with the given cell size (> 0) *)

type 'a t

val create : kind -> 'a t
(** An empty index. Raises [Invalid_argument] for [Grid c] with
    [c <= 0] or non-finite [c]. *)

val bulk : kind -> (box * 'a) list -> 'a t
(** Bulk load. For [Rtree] this is Sort-Tile-Recursive packing — the
    result is balanced with near-full leaves, unlike repeated
    {!insert}. *)

val kind : 'a t -> kind
val length : 'a t -> int

val insert : 'a t -> box -> 'a -> unit

val remove : 'a t -> box -> 'a -> bool
(** [remove t b v] deletes one entry whose box equals [b] and whose
    value is physically equal to [v]; returns whether one was found.
    R-tree nodes left under-full are condensed by re-inserting their
    surviving entries. *)

val range : 'a t -> box -> 'a list
(** All values whose box overlaps the query box. Order is unspecified;
    each matching entry appears exactly once. *)

val nearest : 'a t -> k:int -> float * float -> 'a list
(** The [k] entries whose boxes are nearest the point (min-distance,
    ascending; ties broken arbitrarily). Fewer when the index holds
    fewer than [k] entries. *)

val iter : 'a t -> (box -> 'a -> unit) -> unit
(** Every entry exactly once, unspecified order. *)

val join : 'a t -> 'b t -> ('a -> 'b -> unit) -> unit
(** [join a b f] calls [f] on every pair of entries with overlapping
    boxes. R-tree × R-tree runs as a dual-tree traversal that prunes
    disjoint subtrees; any other combination iterates the smaller side
    and range-queries the larger. *)

val validate : 'a t -> (unit, string) result
(** White-box structural invariants, for property tests: recorded
    length matches the entry count; R-tree node fan-out within
    [3, 8] (root exempt), every node MBR is exactly the union of its
    children's boxes, all leaves at the same depth; grid entries
    registered in every overlapping cell and no other. *)
