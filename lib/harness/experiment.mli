(** Shared machinery for the per-table/figure experiment runners: the
    options every runner takes, the best-configuration constants of
    Section VI-C, normalization helpers, and the rendered-output type
    every experiment returns. Runs themselves are cells ({!Cell.compute}). *)

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
