(* Ablation studies for the design choices DESIGN.md calls out. These go
   beyond the paper's figures and probe the robustness of its
   conclusions within our simulation:

   - [trap_cost]: the whole trade-off space hinges on the ~1000-cycle
     misalignment trap (paper's cited figure). How do the Figure-16
     geomeans move if traps cost 4x less or 4x more? Every column is
     re-priced from Figure 16's default-cost runs, not re-simulated.
   - [chaining]: block chaining is a baseline DBT optimization the paper
     assumes; switching it off shows how much of every mechanism's
     runtime is dispatcher overhead rather than MDA handling.
   - [flush]: Section IV-C contrasts this BT's block-granularity
     invalidation with Dynamo's whole-cache flush; we implement both and
     measure the retranslation mechanism under each. *)

module W = Mda_workloads
module Bt = Mda_bt
module Machine = Mda_machine
module T = Mda_util.Tabular

(* A representative subset: the dynamic-profiling failures, the static
   failures, and two fully-biased codes. *)
let subset =
  [ "164.gzip"; "252.eon"; "179.art"; "188.ammp"; "410.bwaves"; "433.milc";
    "450.soplex"; "483.xalancbmk" ]

let benchmarks_of opts =
  if opts.Experiment.benchmarks == Experiment.default_options.benchmarks then subset
  else opts.Experiment.benchmarks

(* --- 1. trap-cost sensitivity ------------------------------------------ *)

let trap_costs = [ 250; 500; 1000; 2000; 4000 ]

let trap_mechs =
  [ Experiment.best_eh_spec; Experiment.best_dynamic_spec; Cell.Static_profiling;
    Cell.Direct ]

(* The cycles of run [s] had each of its traps cost [align_trap] instead
   of the default: the CPU charges the trap cost once per counted trap
   and no decision of a run reads the cycle counter, so only the traps'
   share of the total moves. *)
let cycles_at ~align_trap (s : Bt.Run_stats.t) =
  let delta = align_trap - Machine.Cost_model.default.align_trap in
  Int64.add s.cycles (Int64.mul s.traps (Int64.of_int delta))

let trap_cost ?(opts = Experiment.default_options) () =
  let scale = opts.Experiment.scale in
  let benchmarks = benchmarks_of opts in
  let ex = Experiment.exec_of opts in
  let cell spec name = Cell.mech ~scale spec name in
  Exec.prefetch ex
    (List.concat_map (fun name -> List.map (fun spec -> cell spec name) trap_mechs) benchmarks);
  let table =
    T.create
      (Array.of_list
         (T.col "trap cycles"
         :: List.map (fun m -> T.col ~align:T.Right m) [ "Dynamic/EH"; "Static/EH"; "Direct/EH" ]))
  in
  List.iter
    (fun trap ->
      let cycles spec name =
        Int64.to_float (cycles_at ~align_trap:trap (Exec.stats ex (cell spec name)))
      in
      let geo spec =
        Experiment.geomean
          (List.map
             (fun name -> cycles spec name /. cycles Experiment.best_eh_spec name)
             benchmarks)
      in
      T.add_row table
        [| string_of_int trap;
           Experiment.f2 (geo Experiment.best_dynamic_spec);
           Experiment.f2 (geo Cell.Static_profiling);
           Experiment.f2 (geo Cell.Direct) |])
    trap_costs;
  { Experiment.title =
      "Ablation: Figure-16 geomeans vs. misalignment-trap cost (subset of benchmarks)";
    table;
    notes =
      [ "the paper's conclusions assume ~1000-cycle traps; cheaper traps shrink";
        "the profiling mechanisms' penalty, costlier traps widen it" ] }

(* --- 2. block chaining --------------------------------------------------- *)

let chaining ?(opts = Experiment.default_options) () =
  let scale = opts.Experiment.scale in
  let benchmarks = benchmarks_of opts in
  let ex = Experiment.exec_of opts in
  let cell chaining name =
    Cell.mech ~scale ~chaining Experiment.best_eh_spec name
  in
  Exec.prefetch ex
    (List.concat_map (fun name -> [ cell true name; cell false name ]) benchmarks);
  let table =
    T.create
      [| T.col "Benchmark"; T.col ~align:T.Right "cycles(chained)";
         T.col ~align:T.Right "cycles(unchained)"; T.col ~align:T.Right "slowdown" |]
  in
  let slowdowns = ref [] in
  List.iter
    (fun name ->
      let c = Exec.cycles ex (cell true name) in
      let u = Exec.cycles ex (cell false name) in
      slowdowns := (u /. c) :: !slowdowns;
      T.add_row table
        [| name;
           Printf.sprintf "%.0f" c;
           Printf.sprintf "%.0f" u;
           Experiment.f2 (u /. c) |])
    benchmarks;
  T.add_row table [| "geomean"; ""; ""; Experiment.f2 (Experiment.geomean !slowdowns) |];
  { Experiment.title = "Ablation: block chaining on/off (exception-handling mechanism)";
    table;
    notes = [ "unchained execution exits to the dispatcher at every block boundary" ] }

(* --- 3. flush policy ------------------------------------------------------

   The Table-I workloads run their loops sequentially, so flushing a
   retranslated block's dead neighbours is free; the policy matters only
   when live hot code shares the cache with it. The runs therefore use
   the purpose-built [W.Flushbench] microbenchmark, one workload per
   phase count, at its fixed shape (scale 1.0, as stack.frames). *)

let flush ?(opts = Experiment.default_options) () =
  let ex = Experiment.exec_of opts in
  let spec = Cell.Dpeh { threshold = 50; retranslate = Some 4; multiversion = false } in
  let cell flush_policy phases =
    Cell.mech ~scale:1.0 ~flush_policy spec (W.Flushbench.name phases)
  in
  let block = cell Bt.Runtime.Block_granularity and full = cell Bt.Runtime.Full_flush in
  Exec.prefetch ex (List.concat_map (fun p -> [ block p; full p ]) W.Flushbench.phase_counts);
  let table =
    T.create
      [| T.col "phase switches";
         T.col ~align:T.Right "block-granularity";
         T.col ~align:T.Right "full flush";
         T.col ~align:T.Right "retrans(block/full)";
         T.col ~align:T.Right "flush/block" |]
  in
  List.iter
    (fun phases ->
      let b = Exec.stats ex (block phases) and f = Exec.stats ex (full phases) in
      let rb = Int64.to_float b.Bt.Run_stats.cycles
      and rf = Int64.to_float f.Bt.Run_stats.cycles in
      T.add_row table
        [| string_of_int phases;
           Printf.sprintf "%.0f" rb;
           Printf.sprintf "%.0f" rf;
           Printf.sprintf "%d/%d" b.Bt.Run_stats.retranslations f.Bt.Run_stats.retranslations;
           Experiment.f2 (rf /. rb) |])
    W.Flushbench.phase_counts;
  { Experiment.title =
      "Ablation: retranslation flush policy — this BT (block) vs Dynamo (full cache)";
    table;
    notes =
      [ "Section IV-C: \"Dynamo flush[es] the entire code cache while our BT";
        "invalidates translated code at block granularity\"";
        "microbenchmark: 8 live hot blocks interleaved with phase-changing MDA sites" ] }
