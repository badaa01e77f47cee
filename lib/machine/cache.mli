(** Set-associative cache simulator with LRU replacement. Models the
    evaluation machine's hierarchy so the paper's code-locality effects
    (Figure 11) appear in cycle counts. *)

type t

(** [create ~size_bytes ~assoc ~line_bytes]. Sizes and line length must
    be powers of two and consistent; raises [Invalid_argument]
    otherwise. *)
val create : size_bytes:int -> assoc:int -> line_bytes:int -> t

(** log2 of the line size: [addr lsr line_bits t] is [addr]'s line. *)
val line_bits : t -> int

val sets : t -> int

(** Touch the line containing [addr]; [true] on hit. Misses fill the
    line, evicting the LRU way. *)
val access : t -> int -> bool

(** Count a hit without a lookup. Exact only for the line this cache
    accessed last: that line is its set's most recent, so a repeat
    access must hit and leaves every set's LRU order as it is. *)
val record_hit : t -> unit

val invalidate_all : t -> unit

(** (hits, misses) since creation. *)
val stats : t -> int * int
