(** Shared machinery for the per-table/figure experiment runners:
    workload execution under a mechanism, interpreter ground-truth runs,
    the best-configuration constants of Section VI-C, normalization
    helpers, and the rendered-output type every experiment returns. *)

type options = {
  scale : float; (** workload volume multiplier *)
  benchmarks : string list; (** defaults to the paper's 21 selected *)
  exec : Exec.t option;
      (** shared plan-then-execute context ([mdabench all] passes one
          context to every experiment, deduping identical cells across
          them); [None] runs sequentially without persistence *)
}

val default_options : options

(** The caller's context, or a fresh sequential one. *)
val exec_of : options -> Exec.t

(** Prepare a spec for one benchmark ({!Mda_mech.Mech_spec.prepare}:
    train profile, analysis with the [mode] engine, or the whole-image
    AOT translation) and run it on a fresh machine. Returns the
    statistics, the runtime (so the code cache can be inspected
    afterwards: [mdabench run --selfcheck]) and the preparation. [sink]
    attaches a trace sink to the run's event hook ([mdabench trace]/
    [hot]); [rules] enables the validator-proved peephole rewrite tier
    on every translation ([mdabench run --rules]). Raises
    {!Mda_bt.Runtime.Runtime_error} on an image AOT cannot translate. *)
val run_spec_rt :
  ?scale:float ->
  ?input:Mda_workloads.Gen.input ->
  ?sink:Mda_obs.Trace.t ->
  ?mode:Mda_analysis.Dataflow.mode ->
  ?rules:Mda_host.Peephole.active ->
  Cell.mech_spec ->
  string ->
  Mda_bt.Run_stats.t * Mda_bt.Runtime.t * Mda_mech.Mech_spec.prepared

(** Static alignment analysis of a benchmark's program image — no
    execution, no profile. [mode] selects the analysis engine
    (default {!Mda_analysis.Dataflow.Interprocedural}). *)
val sa_analyze :
  ?scale:float ->
  ?input:Mda_workloads.Gen.input ->
  ?mode:Mda_analysis.Dataflow.mode ->
  string ->
  Mda_analysis.Dataflow.t

(** The SA-guided mechanism for a benchmark, at the given
    unknown-operand policy (default {!Mda_bt.Mechanism.Sa_fallback}). *)
val sa_mechanism :
  ?scale:float ->
  ?input:Mda_workloads.Gen.input ->
  ?unknown:Mda_bt.Mechanism.sa_policy ->
  string ->
  Mda_bt.Mechanism.t

(** Best configurations for the overall comparison (Section VI-C). *)

val best_dynamic : Mda_bt.Mechanism.t

val best_eh : Mda_bt.Mechanism.t

val best_dpeh : Mda_bt.Mechanism.t

(** The same best configurations as {!Cell.mech_spec} values. *)

val best_dynamic_spec : Cell.mech_spec

val best_eh_spec : Cell.mech_spec

val best_dpeh_spec : Cell.mech_spec

val dpeh_plain_spec : Cell.mech_spec

val cycles : Mda_bt.Run_stats.t -> float

(** [value / baseline]: the paper's normalized-runtime convention
    (>1 is slower). *)
val normalized : baseline:float -> float -> float

(** Signed performance gain in percent (positive = faster), the paper's
    gain/loss convention. *)
val gain_pct : baseline:float -> float -> float

val pct : float -> string

val f2 : float -> string

val geomean : float list -> float

(** A rendered experiment: title, rows, free-form notes. *)
type rendered = { title : string; table : Mda_util.Tabular.t; notes : string list }

val render : rendered -> string

val to_csv : rendered -> string
