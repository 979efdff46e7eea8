(** Production gap map: an imperative B+tree.

    Entries live in doubly-linked leaves in key order; internal nodes hold
    separator keys. As §5 of the paper suggests, each gap's version number
    is stored in a field of its bounding entry (the version of the gap
    *after* entry [e] lives in [e]); the gap between LOW and the first entry
    is held at the tree root. Every entry caches its
    {!Gapmap_intf.entry_hash}, every leaf the sum of its entries' hashes,
    and every inner node the sum and count of its subtree, so range
    summaries, counts, rank queries and therefore range digests and splits
    cost O(log n) whatever the range size. Other operations are O(log n)
    plus the size of the affected range. Structural invariants (occupancy,
    separator soundness, uniform depth, leaf-chain consistency, exact
    cached hashes, sums and counts) are verified by [check_invariants]. *)

include Gapmap_intf.S

val create_with : branching:int -> unit -> t
(** [branching] is both the maximum entries per leaf and the maximum
    children per internal node (minimum [branching/2] for non-roots); must
    be at least 4. {!create} uses {!default_branching}. *)

val default_branching : int

val branching : t -> int
