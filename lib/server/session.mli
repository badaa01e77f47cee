(** A step-resumable guest session: one {!Mda_bt.Runtime} driven in
    bounded slices by the serving-layer scheduler instead of run to
    completion. A session owns its guest memory and CPU but may share a
    code cache with other sessions (see {!Shared_cache}) — translations
    are semantics-preserving regardless of which session produced them,
    and tenants occupy disjoint guest-code windows, so reuse across
    sessions (and across crash restarts) is sound. *)

(** Why a session stopped making progress. *)
type fault =
  | Crash_injected  (** a fault plan killed this incarnation mid-run *)
  | Fuel_exhausted  (** the runtime's runaway guard fired *)
  | Guest_limit  (** [max_guest_insns] reached without a guest Halt *)
  | Aot_miss of int  (** AOT dispatch fell off the static image *)
  | Error of string
      (** {!Mda_bt.Runtime.Runtime_error}, a wild branch or a guest
          access outside memory ({!Mda_machine.Memory.Out_of_bounds}) *)

val fault_to_string : fault -> string

type status =
  | Running  (** slice ended with fuel spent; resume with {!step} *)
  | Degraded
      (** as [Running], but the tenant is demoted to OS-fixup-only *)
  | Halted  (** the guest executed Halt — the only success terminal *)
  | Faulted of fault  (** terminal for this incarnation *)

type t = {
  sid : int;  (** session id, unique within a scheduler run *)
  tid : int;  (** owning tenant *)
  rt : Mda_bt.Runtime.t;
  entry : int;
  mutable pc : int;
  mutable status : status;
  mutable dispatches : int;  (** dispatch steps taken so far *)
  mutable hits : int;  (** dispatches that found a live translation *)
  mutable crash_at : int option;
      (** one-shot injected crash, counted in dispatch steps *)
}

(** Fresh session (a fresh incarnation after a supervisor restart is
    just a fresh session with the same [sid]). The runtime is created
    over [mem] with the trap handler installed; [cache] shares a code
    cache across sessions. *)
val create :
  ?cache:Mda_bt.Code_cache.t ->
  ?crash_at:int ->
  sid:int ->
  tid:int ->
  config:Mda_bt.Runtime.config ->
  mem:Mda_machine.Memory.t ->
  entry:int ->
  unit ->
  t

(** Run at most [fuel] dispatch steps (a scheduler slice) and report the
    session's status. Terminal statuses are sticky: stepping a [Halted]
    or [Faulted] session returns the same status without executing. *)
val step : t -> fuel:int -> status

(** Demote this session's runtime to OS-fixup-only trap service (the
    tenant-granularity trap-storm response). *)
val demote : t -> unit

(** Snapshot run statistics for the current incarnation. *)
val stats : t -> Mda_bt.Run_stats.t
