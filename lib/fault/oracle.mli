(** The check core shared by both chaos runners and the tests: guest
    state snapshots, the pure-interpreter oracle, the trace round-trip
    replay check and the selfcheck-violation line. *)

(** Final guest state: registers (ESP excluded — engine-managed
    identically but uninteresting) and a digest of the memory image. *)
type state

(** Snapshot a CPU and the memory it executes against. *)
val state : Mda_machine.Cpu.t -> state

val state_eq : state -> state -> bool

(** Run a fresh [(entry, memory)] image by pure interpretation
    ({!Mda_bt.Runtime.interpret}: nothing translates and no fault knob
    applies) and snapshot the result. *)
val interpret : int * Mda_machine.Memory.t -> state

(** Serialize the sink as a JSONL trace, parse it back and replay it;
    [Some problem] unless the replayed statistics equal [stats]. *)
val replay_problem :
  mechanism:string -> bench:string -> stats:Mda_bt.Run_stats.t -> Mda_obs.Trace.t ->
  string option

(** [Some problem] naming the violation count and the first violation,
    unless the selfcheck report is clean. *)
val selfcheck_problem : Mda_analysis.Check.report -> string option

(** The sweep of a chaos battery: draw [plans] plans from [seed], check
    every mechanism of [mechs] under each over [jobs] pool workers, and
    return the outcomes in (plan, mechanism) order. A cell whose worker
    died becomes [worker_failed plan mech problem]. *)
val sweep :
  jobs:int ->
  mechs:string list ->
  seed:int ->
  plans:int ->
  draw:(rng:Mda_util.Rng.t -> id:int -> 'plan) ->
  check:('plan -> mech:string -> 'outcome) ->
  worker_failed:('plan -> string -> string -> 'outcome) ->
  'outcome list
