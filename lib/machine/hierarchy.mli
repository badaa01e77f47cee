(** Two-level cache hierarchy with cycle accounting: split L1 I/D over a
    unified L2. Return values are stall cycles to add to an
    instruction's base cost.

    Each L1 remembers the line it touched last and counts a repeat
    touch as a hit without a lookup ({!Cache.record_hit}). That is exact
    only while this module is the one caller of [Cache.access] on
    [l1i] and [l1d]: touching them directly leaves the memo stale. *)

type t = private {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  cost : Cost_model.t;
  l1_bits : int;  (** log2 of the L1 line size *)
  mutable code_line : int;  (** the line L1I touched last, or -1 *)
  mutable data_line : int;  (** the line L1D touched last, or -1 *)
}

(** Defaults to the ES40-like {!Cost_model.es40_caches} geometry.
    Raises [Invalid_argument] for L1 lines under 2 bytes. *)
val create : ?geometry:Cost_model.cache_geometry -> Cost_model.t -> t

(** Stall cycles for a data access; a line-crossing (misaligned) access
    is charged for both lines. *)
val access_data : t -> addr:int -> size:int -> int

(** Stall cycles for an instruction fetch. *)
val access_code : t -> addr:int -> int

(** Invalidate L1I (the code cache was flushed). *)
val invalidate_code : t -> unit
