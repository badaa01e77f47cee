(** The mechanism registry: every mechanism configuration by
    specification, both [-m] label families, and the one preparation
    step that turns a spec into a runnable {!Mda_bt.Mechanism.t}. A spec
    names the preparation it needs instead of carrying its product, so
    it is small, comparable and marshals across worker processes. *)

type t =
  | Direct
  | Static_profiling  (** profile the train input first, ship the summary *)
  | Dynamic_profiling of { threshold : int }
  | Exception_handling of { rearrange : bool }
  | Dpeh of { threshold : int; retranslate : int option; multiversion : bool }
  | Static_analysis of { unknown : Mda_bt.Mechanism.sa_policy }
  | Aot of { unknown : Mda_bt.Mechanism.sa_policy }
      (** analyze, translate the whole image ahead of time, run the
          immutable cache *)

(** A run under a mechanism, or the ground-truth interpreter (or native
    x86) run, which has no code cache. *)
type kind = Mech of t | Interp of { native : bool }

(** Canonical, stable description: result-cache key material. *)
val describe : t -> string

(** Set the heating threshold of [Dynamic_profiling] and [Dpeh]; other
    specs are returned unchanged. *)
val with_heating : int -> t -> t

(** The best configurations of the overall comparison (Section VI-C). *)

val best_dynamic : t

val best_eh : t

val best_dpeh : t

(** The [run]/[verify]/[trace]/[hot] labels: the best configurations
    ([eh] is {!best_eh}, without rearrangement), [aot] with sequenced
    unknown sites, and [interp]/[native]. *)
val run_labels : (string * kind) list

(** The chaos/serve/differential "stress" labels: heating thresholds 3
    ([dynamic-profiling]) and 2 ([dpeh]) so translation and the trap
    handler engage on short workloads, [eh] with rearrangement, and
    [aot] leaving unknown sites to the OS fixup. *)
val stress_labels : (string * t) list

val parse_run : string -> (kind, [ `Msg of string ]) result
val print_run : kind -> string
val parse_stress : string -> (t, [ `Msg of string ]) result
val print_stress : t -> string
val run_conv : kind Cmdliner.Arg.conv

(** What a spec is prepared against: a name for diagnostics and fresh
    [(entry, memory)] images of the program under the run input and
    under the train input. *)
type subject = {
  name : string;
  image : unit -> int * Mda_machine.Memory.t;
  train : unit -> int * Mda_machine.Memory.t;
}

type prepared = {
  mechanism : Mda_bt.Mechanism.t;
  analysis : Mda_analysis.Dataflow.t option;  (** [Static_analysis], [Aot] *)
  aot : (Mda_bt.Code_cache.t * Mda_bt.Aot.stats) option;  (** the cache [Aot] runs *)
}

(** The mechanism of a spec that needs no preparation. Raises
    [Invalid_argument] for [Static_profiling], [Static_analysis], [Aot]. *)
val plain : t -> Mda_bt.Mechanism.t

(** The congruence dataflow analysis of the run-input image. *)
val analyze : ?mode:Mda_analysis.Dataflow.mode -> subject -> Mda_analysis.Dataflow.t

(** Train, analyze, or analyze and translate the whole image ahead of
    time, as the spec needs. [mode] selects the analysis engine and
    [rules] the peephole tier of the AOT translation. Raises
    {!Mda_bt.Runtime.Runtime_error} on an image AOT cannot translate. *)
val prepare :
  ?mode:Mda_analysis.Dataflow.mode ->
  ?rules:Mda_host.Peephole.active ->
  subject ->
  t ->
  prepared
