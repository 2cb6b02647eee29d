(** The spatial access method of the evaluation engine: an
    STR-bulk-loaded R-tree over axis-aligned boxes, with insert/delete
    (for incremental maintenance) and box-range queries — the one
    operation both spatial join guards compile to.

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

type 'a t
(** STR-packed R-tree, fan-out 8, min fill 3. *)

val bulk : (box * 'a) list -> 'a t
(** Bulk load by Sort-Tile-Recursive packing — the result is balanced
    with near-full leaves, unlike repeated {!insert}. *)

val insert : 'a t -> box -> 'a -> unit

val remove : 'a t -> box -> 'a -> bool
(** [remove t b v] deletes one entry whose box equals [b] and whose
    value is physically equal to [v]; returns whether one was found.
    Nodes left under-full are condensed by re-inserting their
    surviving entries. *)

val range : 'a t -> box -> 'a list
(** All values whose box overlaps the query box. Order is unspecified;
    each matching entry appears exactly once. *)

val validate : 'a t -> (unit, string) result
(** White-box structural invariants, for property tests: node fan-out
    within [3, 8] (root exempt), every node MBR is exactly the union of
    its children's boxes, all leaves at the same depth. *)
