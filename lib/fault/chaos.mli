(** Chaos runner: every mechanism under every fault plan, checked
    against the pure-interpreter oracle.

    For each (plan, mechanism) cell the runner executes the plan's
    workload under the plan's injected faults and asserts, in one pass:

    - {b oracle}: final guest registers and the memory-image digest
      equal the pure interpreter's (fault injection may cost cycles,
      never correctness);
    - {b termination}: the run halts — fuel never runs away even under
      eviction storms or an unpatchable handler;
    - {b selfcheck}: the {!Mda_analysis.Check} invariants hold over the
      post-run cache, including the eviction/occupancy family;
    - {b degradation}: once a site emits [Ev_degrade], no later hardware
      trap at that site reaches the patching path ([Ev_trap]) — the site
      is served by OS-style fixup forever after;
    - {b replay}: the run's JSONL trace parses and replays to statistics
      byte-identical to the run's own.

    Cells fan out over the {!Mda_harness.Pool} worker pool and are
    deterministic from the chaos seed. *)

type outcome = {
  plan : Plan.t;
  mech : string;
  ok : bool;
  problems : string list;  (** empty iff [ok]; one line per failed check *)
  evictions : int;
  patch_faults : int;
  degraded : int;
  traps : int;
  translations : int;
}

(** The mechanism labels the chaos runner exercises:
    ["direct"], ["static-profiling"], ["dynamic-profiling"], ["eh"],
    ["dpeh"], ["sa"], ["aot"]. AOT cells run the plan's workload from
    an immutable pre-populated cache; a plan that bounds the cache
    capacity is instead checked to be {e rejected up front} by
    {!Mda_bt.Runtime.create} (eviction from an AOT cache could never be
    repaired), which counts as the cell passing. *)
val mechanism_names : string list

(** A plan's generated workload groups as a preparation subject: the
    groups built for the Ref input, and for the Train input. *)
val subject_of_groups :
  name:string -> Mda_workloads.Gen.group list -> Mda_mech.Mech_spec.subject

(** Run one (plan, mechanism) cell and check every invariant. [mech] is
    a stress-family label ({!Mda_mech.Mech_spec.stress_labels}); unknown
    labels raise [Invalid_argument]. With [?program] (a
    [.asm] file path) the cell runs that hand-written program instead
    of the plan's generated workload — the plan still supplies the
    fault knobs — so textual workloads face the same battery. The run
    goes through the harness's run driver ({!Mda_harness.Cell.run}), so
    it is prepared and configured as every other runner's is. *)
val check : ?program:string -> Plan.t -> mech:string -> outcome

(** Deterministic harness-fault checks (run once per chaos invocation,
    not per plan): a worker killed mid-item is contained by the pool
    without poisoning siblings, and a garbled result-cache entry
    degrades to a miss then heals on re-store. Returns
    [(name, (passed, detail))] per check. *)
val harness_faults : unit -> (string * (bool * string)) list

(** [run ~seed ~plans ()] draws [plans] random plans from [seed] and
    checks every requested mechanism under each, fanning cells over
    [jobs] pool workers. Outcomes are ordered (plan 0 × mechs, plan 1 ×
    mechs, …); a cell whose worker died yields a failed outcome rather
    than an exception. [?program] substitutes a hand-written [.asm]
    workload for every cell, as in {!check}. *)
val run :
  ?jobs:int ->
  ?mechs:string list ->
  ?program:string ->
  seed:int ->
  plans:int ->
  unit ->
  outcome list
