(** The translated-code cache: host instructions in a growable store,
    plus the side tables a patching DBT needs — host-pc → faulting-site
    descriptions for the misalignment handler, and per-block records
    (entry points, chained in-edges, patch/trap accounting for the
    rearrangement and retranslation policies).

    Patching rewrites one slot, the simulated equivalent of overwriting
    one instruction word in a real code cache. *)

module H = Mda_host.Isa

(** What the trap handler needs to regenerate a faulting access as an
    MDA sequence. [op.base]/[op.disp] name live host state at the
    faulting pc. *)
type site = {
  guest_addr : int;
  block_start : int;
  op : Mda_host.Mda_seq.mem_op;
}

(** Per-guest-block bookkeeping. *)
type block_rec = {
  start : int;
  mutable entry : int option; (** host entry pc of the current translation *)
  mutable host_range : (int * int) option;
  mutable execs : int; (** phase-1 (interpreted) executions *)
  mutable traps : int; (** misalignment exceptions in translated code *)
  mutable patched : (int, unit) Hashtbl.t; (** guest addrs patched *)
  mutable known_mda : (int, unit) Hashtbl.t; (** profile ∪ patched *)
  mutable in_chains : int list; (** host pcs chained to [entry] *)
  mutable dirty_rearrange : bool;
  mutable want_retrans : bool;
  mutable retrans_count : int;
  mutable seq_insns : int;
      (** out-of-line MDA-sequence insns patched in for this block *)
  mutable last_used : int;
      (** dispatch tick, for LRU eviction of a bounded cache *)
}

type t = {
  mutable code : H.insn array;
  mutable len : int;
  sites : (int, site) Hashtbl.t;
  blocks : (int, block_rec) Hashtbl.t;
  mutable patches : int; (** slots rewritten, for statistics *)
}

val create : ?initial:int -> unit -> t

val length : t -> int

(** The backing store, valid below {!length}. Growing the cache
    replaces it, so hold it no longer than the next emit. *)
val code : t -> H.insn array

(** Full cache flush: drop all translated code, sites and block records
    but keep the backing store, as a real DBT flushing its reserved
    cache region does. The [patches] statistic survives. *)
val flush : t -> unit

(** Append instructions; returns the pc of the first. *)
val emit : t -> H.insn list -> int

(** [reserve t n] grows the backing store to at least [n] slots without
    publishing anything. The single-pass translator emits each block
    directly into the store past [length t], then commits it with
    {!publish}; an abandoned block simply never gets published. *)
val reserve : t -> int -> unit

(** [publish t n] makes the instructions up to (exclusive) index [n] —
    written directly into [t.code] after a {!reserve} — visible as
    translated code. Raises [Invalid_argument] if [n] shrinks the cache
    or exceeds the reserved capacity. *)
val publish : t -> int -> unit

(** Raises {!Mda_machine.Cpu.Fatal} out of range (a wild branch). *)
val fetch : t -> int -> H.insn

(** Rewrite one slot. *)
val patch : t -> int -> H.insn -> unit

val insn_at : t -> int -> H.insn option

val register_site : t -> pc:int -> site -> unit

val find_site : t -> int -> site option

val remove_sites_in : t -> int * int -> unit

(** Find-or-create the record for the guest block at [start]. *)
val block : t -> int -> block_rec

val find_block : t -> int -> block_rec option

(** Drop a block's translation: re-patch every chained in-edge with
    [repatch pc], remove its sites, clear its entry. The stale code is
    abandoned in place, as real code caches do until a flush. *)
val invalidate : t -> block_rec -> repatch:(int -> H.insn) -> unit

val iter_blocks : t -> (block_rec -> unit) -> unit

val num_blocks : t -> int

(** Live footprint of one block: its host range plus its out-of-line MDA
    sequences. Zero once evicted. *)
val block_live_insns : block_rec -> int

(** Live occupancy of the whole cache — what a capacity bound is
    enforced against; the append-only store keeps stale code in place
    until a flush, so [length] overstates residency. *)
val live_insns : t -> int

(** Live (translated) blocks in guest-address order: a deterministic
    iteration order for cache-wide analyses (validator, mutation
    harness). *)
val blocks_sorted : t -> block_rec list

(** Every recorded chain edge as [(slot pc, required entry, target
    guest start)], sorted — how a cache walker distinguishes a chained
    block exit from a local or patch branch. *)
val chain_exits : t -> (int * int * int) list

(** The live block whose host range contains [pc], if any. *)
val owner_of : t -> int -> block_rec option
