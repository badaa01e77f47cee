(** Synthetic guest-program generator.

    The paper's mechanisms are sensitive only to the dynamic stream of
    memory references — which static instruction executes, how often,
    and whether its effective address is aligned at each execution.
    This module synthesizes x86lite programs reproducing a prescribed
    stream, organized as hot loops whose bodies contain pointer-based
    memory-reference instructions ("sites"). Alignment behaviour is
    controlled entirely by data (pointer cell contents), exactly as in
    real programs, so it is invisible to the translator except through
    execution. *)

(** Per-site alignment behaviour over the run. *)
type behavior =
  | Aligned (** never misaligns *)
  | Misaligned (** misaligned from the first execution, on every input *)
  | Late of { onset : int }
      (** misaligns only after [onset] block executions: a guest-visible
          phase switch nudges the pointer cells (Table III, Figure 10) *)
  | Input_dep (** aligned on the train input, misaligned on ref (Table IV) *)
  | Mixed of { period : int }
      (** striding pointer: misaligned (period-1)/period of executions *)
  | Rare of { period : int }
      (** branch-free counter arithmetic misaligns the pointer once per
          [period] executions (a power of two): hot code with rare MDAs *)

(** Which sites of a group are stores. *)
type mem_mix = Loads_only | Alternate | Stores_only

(** A group: [sites] static instructions sharing one loop body executed
    [execs] times, plus [bloat] filler ALU operations per iteration
    (the code-footprint knob). *)
type group = {
  label : string;
  sites : int;
  execs : int;
  width : int; (** 2, 4 or 8 bytes *)
  mix : mem_mix;
  behavior : behavior;
  bloat : int;
  lib : bool; (** lay this group's code out in the shared-library region *)
  via_call : bool;
      (** the loop body invokes its sites as a called function, adding
          call/ret control flow and aligned stack traffic *)
}

(** The two SPEC input sets. The program binary is identical; only the
    data-segment initialization differs. *)
type input = Train | Ref

(** Data-segment placement of one site. *)
type site_layout = { cell : int; region : int; disp : int; is_store : bool }

(** Stride of a [Mixed] site; [period] must divide [width]. *)
val mixed_stride : width:int -> period:int -> int

(** Whole-group (refs, MDAs), including phase-switch traffic. *)
val group_counts : group -> input -> int * int

(** A generated program with its data initializer and predicted
    reference/MDA counts (tests assert the interpreter measures exactly
    these). *)
type program = {
  asm_program : Mda_guest.Asm.program;
  init : Mda_machine.Memory.t -> unit;
  entry : int;
  expected_refs : int;
  expected_mdas : int;
  groups : (group * site_layout list) list;
  lib_boundary : int option;
      (** guest address where shared-library code starts, if any *)
}

(** Assemble a program realizing [groups] under [input]. Raises
    [Invalid_argument] if the data segment overflows. *)
val build : ?base:int -> input:input -> group list -> program

(** Entry point and fresh guest memory initialized by the program
    (image and data). *)
val load : program -> int * Mda_machine.Memory.t
