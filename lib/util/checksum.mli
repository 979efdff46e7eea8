(** FNV-1a 64-bit hashing.

    The write-ahead log frames its records with it. FNV-1a is not
    cryptographic; it is a fast, well-distributed 64-bit fold, which is what
    framing needs (storage faults are accidents, not adversaries). *)

val fnv1a : string -> int64
(** The standard FNV-1a 64 hash of a string's bytes. Allocates only its
    boxed result. *)
