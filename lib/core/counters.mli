(** The runtime's counter registry: every statistic the runtime
    accumulates, declared exactly once (id, stable name, description)
    and stored in one table, so {!Run_stats}, the lib/obs sinks and the
    CLI all read the same source of truth. The names are part of the
    trace/CLI schema. *)

type id =
  | Guest_insns
  | Interp_insns
  | Memrefs
  | Mdas
  | Translations
  | Retranslations
  | Rearrangements
  | Chains
  | Handler_patches
  | Translated_guest_len
  | Translated_host_len
  | Evictions
  | Patch_faults
  | Degrades
  | Peephole_hits
  | Peephole_saved
  | Validator_bailouts
  | Restarts
  | Demotions
  | Admission_rejects
  | Admission_defers

(** The declared-once table: id, stable name, one-line description. *)
val all : (id * string * string) list

type t

val create : unit -> t

(** The count widened to int64 (for the stats fields typed int64). *)
val get : t -> id -> int64

val geti : t -> id -> int

val addi : t -> id -> int -> unit

val incr : t -> id -> unit

(** (name, value) pairs in declaration order. *)
val to_alist : t -> (string * int64) list

val pp : Format.formatter -> t -> unit
