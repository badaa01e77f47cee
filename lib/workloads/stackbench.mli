(** A stack-frame microbenchmark separating the interprocedural and
    intraprocedural congruence engines.

    A main loop calls three distinct leaf functions — one with a
    caller-cleaned stack argument, so ret-time ESP values differ by 4
    across callees — and every callee performs width-8 accesses to
    fixed [disp(%esp)] frame slots. Intraprocedural return-site mixing
    collapses ESP to a stride-4 congruence and loses every width-8
    slot; the interprocedural engine classifies all of them (six
    proven aligned, one proven misaligned). See the implementation
    header for the exact frame layout. *)

(** ["stack.frames"] — how {!Workload.instantiate} selects it. *)
val name : string

(** Synthetic Table-I-style row: 7 MDA-site instructions, one MDA per
    loop iteration. *)
val row : Spec.row

(** Build the program. The binary and (empty) data segment are
    input-independent; the parameter mirrors {!Gen.build}. *)
val program : input:Gen.input -> Gen.program
