(** Benchmark instantiation: Table-I rows + traits → a concrete guest
    program plus its per-input data initializer. The compilation splits
    the benchmark's MDA volume (ratio × total_refs) across behaviour
    groups, slices groups into hot loops of at most six sites, and
    pads with aligned traffic so the measured MDA ratio reproduces the
    paper's column. *)

type t = {
  name : string;
  row : Spec.row;
  traits : Spec.traits;
  input : Gen.input;
  scale : float;
  program : Gen.program;
}

(** Program variant: [Aligned_opt] models recompiling with the
    compiler's data-alignment enforcement (Figure 1) — every access
    aligned, slightly more work in some loops. Only meaningful for
    native-x86 runs. *)
type variant = Default | Aligned_opt

(** [instantiate ?scale ?input ?variant name] synthesizes the benchmark.
    The binary is identical across inputs (only data initialization
    differs), as static profiling requires. {!Stackbench.name} and the
    {!Flushbench.name}s select the hand-assembled microbenchmarks, and a
    [name] ending in [".asm"] is loaded as a hand-written assembly file
    via {!Asmfile} (the paper row is measured by a profiled interpreter
    run); for all three, [scale] and [variant] do not apply. *)
val instantiate : ?scale:float -> ?input:Gen.input -> ?variant:variant -> string -> t

(** [lib_boundary ?scale name] is the program's {!Gen.program.lib_boundary}
    (where its shared-library code starts, if it has any), without
    synthesizing the program of a benchmark that has no library code. *)
val lib_boundary : ?scale:float -> string -> int option

(** Fresh simulated memory with the program image and input data
    loaded. *)
val fresh_memory : t -> Mda_machine.Memory.t

val entry : t -> int

val paper_row : t -> Spec.row

(** Generator-predicted dynamic counts (tests assert the interpreter
    measures exactly these). *)
val expected_refs : t -> int

val expected_mdas : t -> int
