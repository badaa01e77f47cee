(** The MDA handling mechanisms under evaluation (paper Sections III–IV,
    Table II): QEMU-style direct translation, FX!32-style static
    profiling, IA-32 EL-style dynamic profiling, the paper's
    exception-handling mechanism (optionally with code rearrangement),
    DPEH with optional retranslation and multi-version code — plus two
    purely static mechanisms guided by the alignment-congruence
    dataflow analysis of {!Mda_analysis.Dataflow}: [Static_analysis]
    (analysis verdicts consulted during lazy dynamic translation) and
    [Aot] (the whole image translated ahead of time into an immutable
    pre-populated code cache, runtime translation disabled). *)

(** Verdict of the static alignment analysis for one memory operand.
    [Align_aligned] / [Align_misaligned] are proofs over every
    execution; [Align_unknown] is the analysis declining to commit. *)
type align_class = Align_aligned | Align_misaligned | Align_unknown

val align_class_name : align_class -> string

(** Translation policy for operands the analysis could not classify:
    [Sa_seq] inlines the MDA sequence defensively (never traps);
    [Sa_fallback] translates them aligned and lets the exception
    handler patch first-trap sites. *)
type sa_policy = Sa_seq | Sa_fallback

(** Immutable product of the static analysis: guest instruction
    address → verdict. Absent sites are [Align_unknown]. *)
type sa_summary = { classes : (int, align_class) Hashtbl.t }

val sa_classify : sa_summary -> int -> align_class

type t =
  | Direct
  | Static_profiling of Profile.summary
  | Dynamic_profiling of { threshold : int }
  | Exception_handling of { rearrange : bool }
  | Dpeh of { threshold : int; retranslate : int option; multiversion : bool }
  | Static_analysis of { summary : sa_summary; unknown : sa_policy }
  | Aot of { summary : sa_summary; unknown : sa_policy }
      (** ahead-of-time: same per-site policies as [Static_analysis],
          but the cache is pre-populated by {!Mda_bt.Aot} and immutable
          — a runtime dispatch miss is a hard error, and unknown sites
          under [Sa_fallback] are OS-fixed-up on every trap *)

val name : t -> string

(** DigitalBridge's default heating threshold (50): every mechanism that
    lives inside the two-phase framework shares it. *)
val default_heating : int

(** Phase-1 (interpreted) executions before a block is translated. *)
val heating_threshold : t -> int

(** Does phase 1 carry alignment-profiling instrumentation? *)
val profiles_alignment : t -> bool

(** Does the misalignment handler patch the code cache ([Retry]) rather
    than fix the access up on every occurrence ([Emulate])? Always
    [false] for [Aot], whose cache is immutable. *)
val patches_on_trap : t -> bool

(** Is runtime translation disabled (the code cache pre-populated and
    immutable)? True exactly for [Aot]. *)
val is_static : t -> bool
