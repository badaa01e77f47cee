(** A retranslation-flush microbenchmark: the workload of the
    flush-policy ablation (Section IV-C's contrast between Dynamo's
    whole-cache flush and block-granularity invalidation).

    An outer loop interleaves 8 hot aligned blocks with pointer-based
    width-8 accesses whose alignment degrades in phases: each phase
    switch misaligns 4 more pointers, exposing 4 new trapping sites —
    enough to trip a retranslate-after-4 policy once per phase. The
    shape is fixed by the phase count alone; scale and variant do not
    apply. *)

(** The phase counts the flush ablation measures: 1, 2, 4 and 8. *)
val phase_counts : int list

(** [name phases] is ["flush.phases-N"] — how {!Workload.instantiate}
    selects the microbenchmark with [phases] phase switches. *)
val name : int -> string

(** The phase count a {!name} selects; [None] for any other name. *)
val phases_of_name : string -> int option

(** Synthetic Table-I-style row: the sites that ever misalign and the
    predicted dynamic MDA count. *)
val row : phases:int -> Spec.row

(** Build the program. The binary and data are input-independent; the
    parameter mirrors {!Gen.build}. *)
val program : phases:int -> input:Gen.input -> Gen.program
