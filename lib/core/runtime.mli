(** The DigitalBridge-style DBT runtime (paper Figures 4 and 9).

    Dispatches on guest pc, interprets cold blocks (phase 1, optionally
    with alignment profiling), translates hot blocks, runs translated
    code on the host CPU, chains block exits, and services misalignment
    exceptions per the active mechanism — OS-style fixup, or
    patch-and-retry with MDA code sequences plus the deferred
    rearrangement and retranslation policies. *)

(** What retranslation invalidates: the faulting block only (this BT's
    policy) or the whole code cache (Dynamo's flush policy, contrasted
    in the paper's Section IV-C). *)
type flush_policy = Block_granularity | Full_flush

(** BT-level events (translations, traps, patches, chains, rebuilds),
    deliverable to a tracing hook via [config.on_event]. *)
type event =
  | Ev_translate of { block : int; entry : int; host_len : int }
  | Ev_trap of { host_pc : int; guest_addr : int; ea : int }
  | Ev_patch of { host_pc : int; guest_addr : int; seq_at : int }
  | Ev_os_fixup of { host_pc : int; guest_addr : int; ea : int }
      (** [guest_addr] is [-1] when no site record maps the faulting pc *)
  | Ev_chain of { at : int; target_block : int }
  | Ev_rearrange of { block : int; entry : int }
  | Ev_retranslate of { block : int }
  | Ev_evict of { block : int; freed : int }
      (** a bounded cache dropped this block's translation to make room *)
  | Ev_patch_fault of { host_pc : int; guest_addr : int; attempt : int }
      (** an injected fault refused this patch attempt; the trap was
          serviced by OS-style fixup instead *)
  | Ev_degrade of { guest_addr : int; attempts : int }
      (** after [attempts] failed patches the site permanently falls
          back to OS-style fixup *)

(** Stable one-word kind name of an event ("translate", "trap", …) —
    part of the trace schema. *)
val event_kind : event -> string

val pp_event : Format.formatter -> event -> unit

(** Fault-injection knobs, all off in {!no_faults}. [cache_capacity]
    bounds the *live* code-cache footprint in host instructions
    (enforced by LRU-by-block eviction, or a full flush under
    [Full_flush]); [patch_budget] caps total successful handler patches;
    [patch_refuse] vetoes individual patch attempts. After
    [degrade_after] failed attempts a site permanently degrades to
    OS-style fixup ({!Ev_degrade}). *)
type faults = {
  cache_capacity : int option;
  patch_budget : int option;
  patch_refuse : (guest_addr:int -> attempt:int -> bool) option;
  degrade_after : int;
}

(** Unbounded cache, reliable handler — the production default. *)
val no_faults : faults

type config = {
  mechanism : Mechanism.t;
  cost : Mda_machine.Cost_model.t;
  fuel : int; (** bound on host instructions (runaway-code guard) *)
  max_guest_insns : int64; (** stop the run after this many guest insns *)
  chaining : bool; (** link translated block exits directly (standard) *)
  flush_policy : flush_policy;
  faults : faults;
      (** injected-fault knobs; [no_faults] = unbounded, reliable *)
  rules : Mda_host.Peephole.active option;
      (** validator-proved peephole rewrite tier applied to every
          translation (see {!Translate.translate}); applications are
          counted under [Counters.Peephole_hits]/[Peephole_saved] *)
  on_event : (event -> unit) option; (** tracing hook *)
}

val default_config : Mechanism.t -> config

type t = {
  cpu : Mda_machine.Cpu.t;
  cache : Code_cache.t;
  profile : Profile.t;
  config : config;
  blocks_decoded : (int, Block.t) Hashtbl.t;
  counters : Counters.t;
      (** the declared-once statistic registry ({!Counters.all}) every
          consumer — {!Run_stats}, the lib/obs sinks, the CLI — reads *)
  mutable fuel_left : int;  (** never negative; 0 = runaway guard fired *)
  mutable lru_tick : int;  (** dispatch clock stamping [block_rec.last_used] *)
  mutable os_fixup_only : bool;
      (** tenant-granularity degradation (the serving layer's trap-storm
          demotion): every trap is serviced by OS-style fixup, never the
          patching path; set via {!set_os_fixup_only} *)
  degraded : (int, unit) Hashtbl.t;
      (** guest addrs permanently degraded to OS fixup; keyed outside
          the code cache so the verdict survives eviction *)
  patch_attempts : (int, int) Hashtbl.t;
      (** guest addr → failed patch attempts so far *)
  scratch : Translate.scratch;
      (** this runtime's emission arena, reused across translations *)
  phase1_mode : Interp.mode;
  phase1_observer : Interp.observer;
      (** phase 1's interpreter mode and memory observer, fixed by the
          mechanism and built once *)
}

(** Fresh runtime over [mem] (which must already hold the guest image).
    [cache] supplies a pre-populated code cache — how an {!Aot} image
    is executed; omitted, the runtime starts with an empty one. Raises
    [Invalid_argument] for a cache-capacity bound below 1, or when an
    immutable (AOT) mechanism is combined with any bound. *)
val create : ?config:config -> ?cache:Code_cache.t -> mem:Mda_machine.Memory.t -> unit -> t

(** The runtime's counter registry (same value as the [counters] field). *)
val counters : t -> Counters.t

(** The guest block at [pc] decoded afresh from the runtime's current
    guest memory (not the dispatch-time decode cache), or [None] if it
    does not decode: what the translation validator checks a cached
    translation against. *)
val guest_block : t -> int -> Block.t option

(** Unrecoverable run failure: undecodable guest code, or a block the
    code generator cannot lower ({!Translate.Error}, re-raised here with
    the faulting guest address — the code cache is left untouched). *)
exception Runtime_error of string

(** Pure-interpreter (default) or native-x86 execution of the whole
    program from [entry] on [t], with full alignment profiling into
    [t.profile]: every block is interpreted by the same driver as phase
    1 of {!step}, and nothing is translated. The ground-truth engine
    behind Table I, Figure 15, train-input profiling runs, the chaos
    oracle and (in [Native] mode) Figure 1. Stops at guest Halt or at
    [t.config.max_guest_insns]; [blocks] counts the blocks decoded. *)
val interpret : ?mode:Interp.mode -> t -> entry:int -> Run_stats.t

(** {!interpret} on a fresh runtime over [mem]: the statistics and the
    collected profile. *)
val interpret_program :
  ?mode:Interp.mode ->
  ?max_guest_insns:int64 ->
  mem:Mda_machine.Memory.t ->
  entry:int ->
  unit ->
  Run_stats.t * Profile.t

(** Run the guest program from [entry] to completion (guest Halt): a
    thin wrapper over {!install_handler}, {!step} and {!stats}. *)
val run : t -> entry:int -> Run_stats.t

(** {2 Step-resumable execution}

    The pieces {!run} is built from, exposed so one OS process can
    interleave many runtimes (the lib/server session scheduler): install
    the trap handler once, then drive dispatch steps from a caller-held
    pc, snapshotting statistics at any dispatch boundary. *)

(** Install the mechanism's misalignment trap handler on the runtime's
    CPU. Must be called (once) before {!step}. *)
val install_handler : t -> unit

(** One dispatch step at guest [pc]: interpret / translate / enter
    translated code, returning the next pc or why dispatch cannot
    continue. May raise [Mda_machine.Cpu.Out_of_fuel] (the runaway
    guard) or {!Runtime_error}. *)
val step : t -> int -> [ `Continue of int | `Halt | `Aot_miss of int ]

(** Exact interpreted guest instructions plus the expansion-ratio
    estimate of instructions retired in translated code — what the
    [max_guest_insns] bound is enforced against. *)
val total_guest_insns : t -> int64

(** Snapshot the run's statistics at the current dispatch boundary,
    with the caller naming why execution stopped. *)
val stats : t -> stop:Run_stats.stop_reason -> Run_stats.t

(** Drop one block's translation to make room in a bounded cache: the
    only eviction path. Unlinks its chained in-edges, charges
    [cost.invalidate_block] to this runtime's CPU, counts it under
    [Counters.Evictions] and emits {!Ev_evict}. The block keeps its
    heat, so the next dispatch to it re-translates. The serving layer
    evicts from its shared cache through the runtime of the session
    whose slice caused the pressure. *)
val evict_block : t -> Code_cache.block_rec -> unit

(** Demote (or restore) this runtime to OS-fixup-only trap service —
    the per-site [degrade_after] machinery at whole-runtime
    granularity, used by the serving layer's per-tenant trap-storm
    detector. *)
val set_os_fixup_only : t -> bool -> unit
