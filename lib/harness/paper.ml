(* The paper's experiments in [mdabench all] order: (name, one-line
   description, runner). [mdabench] builds one subcommand per entry and
   prints the descriptions in [mdabench list] and each subcommand's
   --help; [mdabench all] and the harness tests iterate the same list.

   bench/suite/paper_regen.ml keeps its own (name, runner) copy: the
   benchmark suite is held fixed so that its figures stay comparable
   from one change to the next. *)

type runner = ?opts:Experiment.options -> unit -> Experiment.rendered

let experiments : (string * string * runner) list =
  [ ("table1", "MDA counts and ratios of the SPEC benchmarks (Table I)", Table1.run);
    ("sharedlib", "MDA attribution: application vs shared-library code (Section II)", Sharedlib.run);
    ("ablate-trapcost", "Figure-16 geomeans vs misalignment-trap cost", Ablation.trap_cost);
    ("ablate-chaining", "block chaining on/off under exception handling", Ablation.chaining);
    ("ablate-flush", "retranslation flush policy: block vs full-cache", Ablation.flush);
    ("table2", "mechanisms and their configuration choices (Table II)", Table2.run);
    ("table3", "MDAs undetected by dynamic profiling (Table III)", Table3.run);
    ("table4", "MDAs remaining with train-input profiles (Table IV)", Table4.run);
    ("fig1", "native speedup from alignment-optimization flags (Figure 1)", Fig1.run);
    ("fig10", "runtime vs dynamic-profiling threshold (Figure 10)", Fig10.run);
    ("fig11", "gain/loss from code rearrangement (Figure 11)", Fig11.run);
    ("fig12", "gain/loss of DPEH over exception handling (Figure 12)", Fig12.run);
    ("fig13", "gain/loss from retranslation (Figure 13)", Fig13.run);
    ("fig14", "gain/loss from multi-version code (Figure 14)", Fig14.run);
    ("fig15", "MDA instructions by misaligned-ratio class (Figure 15)", Fig15.run);
    ("fig16", "overall mechanism comparison, normalized to EH (Figure 16)", Fig16.run);
    ("figsa", "static alignment analysis vs the paper's mechanisms (Figure SA)", Figsa.run) ]
