(** Two-level cache hierarchy with cycle accounting: split L1 I/D over a
    unified L2. Return values are stall cycles to add to an
    instruction's base cost. *)

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  cost : Cost_model.t;
}

(** Defaults to the ES40-like {!Cost_model.es40_caches} geometry. *)
val create : ?geometry:Cost_model.cache_geometry -> Cost_model.t -> t

(** Stall cycles for a data access; a line-crossing (misaligned) access
    is charged for both lines. *)
val access_data : t -> addr:int -> size:int -> int

(** Stall cycles for an instruction fetch. *)
val access_code : t -> addr:int -> int

val invalidate_code : t -> unit
