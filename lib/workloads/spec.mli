(** SPEC CPU2000/2006 benchmark models: the paper's Table I verbatim,
    plus behavioural traits for the 21 selected benchmarks (the rows of
    Tables III/IV). See the implementation header for how each trait
    maps to paper evidence. *)

type suite = Int2000 | Fp2000 | Int2006 | Fp2006

val suite_name : suite -> string

(** One Table-I row. *)
type row = {
  name : string;
  suite : suite;
  nmi : int; (** static instructions referencing misaligned data *)
  mdas : float; (** dynamic MDA count, ref input *)
  ratio : float; (** MDAs / memory references, as a fraction *)
}

(** All 54 rows of Table I. *)
val table1 : row list

(** Raises [Invalid_argument] for unknown names. *)
val find : string -> row

(** Figure-15 alignment-bias classes for mixed sites. *)
type mixed_class = Lt_half | Eq_half | Gt_half

type traits = {
  total_refs : int; (** simulated memory references (before --scale) *)
  width : int; (** dominant access width: 8 for FP codes, 4 for INT *)
  mda_sites : int; (** scaled NMI *)
  late : (float * int) list; (** (fraction of MDA volume, onset) *)
  warmup_mdas : int; (** data-initialization warm-up MDAs (onset ≈ 20) *)
  late_tail_mdas : int; (** small undetectable tail (Table III low rows) *)
  input_frac : float; (** ref-input-only fraction of MDA volume *)
  mixed : (mixed_class * float) list; (** (class, fraction of MDA sites) *)
  lib_frac : float;
      (** fraction of always-misaligned MDA volume in shared-library
          code (Section II: >90% for gzip/perlbench/xalancbmk) *)
  heavy_rare : (int * int * int) option;
      (** (sites, execs/site, period): hot code misaligning once per
          period — the 464.h264ref phenomenon *)
  bloat : int; (** filler ALU ops per loop body *)
  filler_sites : int; (** aligned-traffic loops *)
}

val default_traits : traits

(** Onset beyond every Figure-10 threshold. *)
val undetectable : int

val selected_names : string list

(** Traits for any Table-I benchmark (defaults derived from the row for
    non-selected ones). *)
val traits_of : string -> traits

val is_selected : string -> bool

val all_names : string list
