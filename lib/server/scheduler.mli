(** The multi-tenant session scheduler: admission control over a
    bounded run queue, round-robin slicing of live sessions over a
    shared tenant-fair {!Shared_cache}, a per-tenant trap-storm
    detector that demotes storming tenants to OS-fixup-only trap
    service, and a supervisor restarting crashed or fuel-stuck sessions
    with capped exponential backoff.

    The scheduler is single-threaded and fully deterministic: sessions
    are sliced in submission order, every clock is the simulated cycle
    counter, and the report it returns is a pure function of (specs,
    config) — byte-identical across hosts and parallelism levels. *)

(** Admission verdict for a submission. *)
type decision =
  | Admitted  (** went live immediately *)
  | Deferred  (** parked in the bounded run queue, admitted later *)
  | Rejected  (** queue full: never ran *)

val decision_to_string : decision -> string

type config = {
  capacity : int option;
      (** shared code-cache bound in live host insns; [None] unbounded *)
  max_live : int;  (** sessions running concurrently *)
  queue_limit : int;  (** bounded run queue beyond [max_live] *)
  slice_fuel : int;  (** dispatch steps per scheduler slice *)
  translation_quota : int option;
      (** per-tenant translations per round; a tenant over quota skips
          its remaining slices that round ([None] = unlimited) *)
  storm_window : int;  (** sliding trap-rate window, in rounds *)
  storm_traps : int;
      (** traps within the window that demote the tenant *)
  backoff_cap : int;
      (** restart delay ceiling, in rounds; the first restart waits one
          round and each further one doubles the wait *)
  max_restarts : int;
      (** supervisor gives a session at most this many restarts *)
}

val default_config : config

(** One session submission. [fresh_mem] must yield an independent,
    fully initialized guest memory on every call (each supervisor
    restart re-images from it). [first_fuel] overrides the runtime fuel
    of the {e first} incarnation only — how a fault plan makes a
    session fuel-stuck so the supervisor must restart it. [crash_at]
    injects a one-shot crash after that many dispatch steps of the
    first incarnation. *)
type spec = {
  tid : int;
  arrival : int;  (** submission round *)
  entry : int;
  fresh_mem : unit -> Mda_machine.Memory.t;
  config : Mda_bt.Runtime.config;
  crash_at : int option;
  first_fuel : int option;
}

type session_report = {
  sid : int;
  s_tid : int;
  decision : decision;
  status : Session.status option;  (** [None] = rejected, never ran *)
  restarts : int;
  dispatches : int;
  hits : int;
  guest_insns : int64;
  cycles : int64;
  traps : int64;
  translations : int;
  patches : int;
  patch_faults : int;
}

type tenant_report = {
  t_tid : int;
  submissions : int;
  demoted : bool;
  t_guest_insns : int64;
  t_cycles : int64;
  t_traps : int64;
  t_translations : int;
  evictions_suffered : int;
      (** this tenant's blocks evicted from the shared cache *)
  t_dispatches : int;
  t_hits : int;
  t_restarts : int;
  rejected : int;
  deferred : int;
}

type report = {
  rounds : int;
  sessions : session_report list;  (** by sid *)
  tenants : tenant_report list;  (** by tid *)
  restarts : int;
  demotions : int;
  admission_rejects : int;
  admission_defers : int;
  evictions : int;
  p99_trap_cycles : int64;
      (** p99 of the per-trap cycle cost proxy (slice cycle delta over
          slice trap delta, sampled once per trap) *)
  max_backoff_used : int;  (** largest restart delay scheduled, rounds *)
  total_cycles : int64;
  total_guest_insns : int64;
  cache_live_insns : int;
  cache_blocks : int;
}

type outcome = {
  report : report;
  finals : Session.t option list;
      (** terminal sessions by sid, for oracle checks ([None] = rejected) *)
  counters : Mda_bt.Counters.t;
      (** the server-level registry: restarts, demotions, admission
          rejects/defers under their declared-once names *)
  agg_stats : Mda_bt.Run_stats.t;
      (** aggregate {!Mda_bt.Run_stats} over all sessions and
          incarnations — the end record a serve trace embeds, so
          {!Mda_obs.Trace.replay} cross-checks the interleaved stream *)
  shared : Shared_cache.t;  (** the shared cache, post-run *)
}

(** Run every submission to a terminal state. [tenants] sizes the
    fairness shares (must exceed every spec's [tid]); [sink], when
    given, receives every BT event tagged with the emitting session and
    timestamped by that session's simulated clock. *)
val run : ?sink:Mda_obs.Trace.t -> ?tenants:int -> config -> spec list -> outcome

(** Tenant [tid]'s cycles with only its own sessions of [specs]
    scheduled, same knobs: the isolated baseline a shared run is
    compared against. *)
val isolated_cycles : tenants:int -> config -> spec list -> int -> int64
