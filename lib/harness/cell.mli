(** One experiment cell — the unit of work of the parallel runner
    ({!Pool}) and the key of the persistent result cache
    ({!Result_cache}). A cell is a pure specification of one
    (benchmark, mechanism, input, scale) simulation; mechanisms needing
    per-benchmark preparation (train profiles, static analysis) name the
    preparation, which {!compute} performs, so cells stay small,
    deterministic and content-addressable. Every cell runs the default
    {!Mda_machine.Cost_model}; a cost sweep derives its columns from the
    event counts (see [Ablation.cycles_at]). *)

(** Mechanism by specification: {!Mda_mech.Mech_spec.t}, re-exported so
    experiment code names specs as [Cell.Direct], [Cell.Static_profiling], … *)
type mech_spec = Mda_mech.Mech_spec.t =
  | Direct
  | Static_profiling
  | Dynamic_profiling of { threshold : int }
  | Exception_handling of { rearrange : bool }
  | Dpeh of { threshold : int; retranslate : int option; multiversion : bool }
  | Static_analysis of { unknown : Mda_bt.Mechanism.sa_policy }
  | Aot of { unknown : Mda_bt.Mechanism.sa_policy }

(** A full BT run under a mechanism ([Mech]), or the ground-truth
    interpreter or native-x86 run with its profile dump ([Interp]). *)
type kind = Mda_mech.Mech_spec.kind

type t = {
  bench : string;
  scale : float;
  input : Mda_workloads.Gen.input;
  variant : Mda_workloads.Workload.variant;
  kind : kind;
  chaining : bool;
  capacity : int option;
      (** bounded code cache, in live host insns ([Mech] cells only;
          the interpreter has no code cache) *)
  rules : Mda_host.Peephole.t option;
      (** validator-proved peephole rules, carried as plain data (not
          {!Mda_host.Peephole.active}) so cells marshal across worker
          processes; {!compute} activates them. The rule-file digest is
          part of {!describe}, hence of the result-cache key. *)
}

val make :
  ?input:Mda_workloads.Gen.input ->
  ?variant:Mda_workloads.Workload.variant ->
  ?chaining:bool ->
  ?capacity:int ->
  ?rules:Mda_host.Peephole.t ->
  scale:float ->
  kind ->
  string ->
  t

(** [mech ~scale spec bench] is [make ~scale (Mech spec) bench]. *)
val mech :
  ?input:Mda_workloads.Gen.input ->
  ?variant:Mda_workloads.Workload.variant ->
  ?chaining:bool ->
  ?capacity:int ->
  ?rules:Mda_host.Peephole.t ->
  scale:float ->
  mech_spec ->
  string ->
  t

val interp :
  ?input:Mda_workloads.Gen.input ->
  ?variant:Mda_workloads.Workload.variant ->
  scale:float ->
  string ->
  t

val native :
  ?input:Mda_workloads.Gen.input ->
  ?variant:Mda_workloads.Workload.variant ->
  scale:float ->
  string ->
  t

(** Canonical, injective, stable description — the cache-key material. *)
val describe : t -> string

(** One profiled static site of an [Interp] cell's dump (sorted by
    address; plain data, so results marshal and serialize stably). *)
type site = { addr : int; refs : int; mdas : int }

type result = { stats : Mda_bt.Run_stats.t; sites : site array }

(** Static instructions with at least one MDA (Table I's NMI column). *)
val nmi : site array -> int

(** A benchmark as a {!Mda_mech.Mech_spec.subject}: its image under
    [input] (what static analysis and AOT see) and under the train
    input (what static profiling trains on). *)
val subject :
  scale:float -> input:Mda_workloads.Gen.input -> string -> Mda_mech.Mech_spec.subject

(** The prepared {!Mda_bt.Mechanism.t} a spec describes (runs the
    train-input profile / static analysis as needed; an [Aot] spec's
    cache is dropped — {!compute} runs it). *)
val mechanism_of_spec :
  scale:float -> input:Mda_workloads.Gen.input -> string -> mech_spec -> Mda_bt.Mechanism.t

(** Run the cell to completion on a fresh machine. [sink] attaches a
    trace sink (cycle-stamped BT events) to [Mech] cells; the result is
    bit-identical with and without one — tracing is a pure observation
    artifact, which keeps traced runs cache-compatible. [Interp] cells
    execute no BT events, so their trace is empty by construction. *)
val compute : ?sink:Mda_obs.Trace.t -> t -> result

(** [compute_traced t] computes [t] with a fresh unbounded sink and also
    returns the complete JSONL trace of the run. *)
val compute_traced : t -> result * string
