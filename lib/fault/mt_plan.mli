(** Seeded deterministic multi-tenant fault plans for the serving
    layer.

    A plan is one chaos scenario over {!Mda_server.Scheduler}: a tenant
    population (with optional noisy-neighbour and trap-storm tenants),
    a session churn schedule (staggered arrivals), supervisor-visible
    mid-session faults (injected crashes, fuel-stuck first
    incarnations), and the scheduler knobs. Everything derives from the
    plan's 64-bit seed, so a plan id printed by a failing serve-chaos
    run reproduces the scenario byte-for-byte. *)

(** One session submission of the plan. *)
type session = {
  s_tid : int;
  s_arrival : int;  (** submission round (tenant churn) *)
  s_crash_at : int option;
      (** one-shot injected crash after this many dispatch steps of the
          first incarnation — the supervisor must restart it *)
  s_first_fuel : int option;
      (** fuel-stuck first incarnation: tiny runtime fuel so the
          runaway guard fires and the supervisor must restart *)
}

type t = {
  id : int;
  seed : int64;  (** derives tenant workloads and all the rolls below *)
  tenants : int;
  noisy : int list;  (** noisy-neighbour tenants (bloat-heavy code) *)
  storm : int option;
      (** the storming tenant: misalignment-heavy workload, patches
          always refused, sites never self-degrading — only the
          scheduler's tenant-granularity demotion can end the storm.
          Storm plans leave the shared cache unbounded so neighbour
          throughput is attributable to the storm alone. *)
  sessions : session list;
  capacity : int option;  (** shared-cache bound; [None] = unbounded *)
  max_live : int;
  queue_limit : int;
  slice_fuel : int;
  storm_window : int;
  storm_traps : int;
  backoff_cap : int;
  max_restarts : int;
}

(** [random ~rng ~id] draws the next plan from [rng]'s stream. About
    half the plans carry a storm tenant; the rest bound the shared
    cache tightly enough that noisy neighbours force eviction. Every
    plan's queue is sized to defer, never reject — admission rejection
    has its own unit tests; the battery asserts every submitted session
    reaches a checked terminal state. *)
val random : rng:Mda_util.Rng.t -> id:int -> t

(** One-line human description. *)
val describe : t -> string

(** The plan's scheduler configuration. *)
val scheduler_config : t -> Mda_server.Scheduler.config

(** The plan's tenant workload specs (deterministic from [seed]). *)
val tenant_specs : t -> Mda_server.Tenants.spec list
