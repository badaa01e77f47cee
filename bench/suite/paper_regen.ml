(* paper-regen: the in-process equivalent of
   [mdabench all --scale 0.05 --jobs 1] — the same 17 experiment
   runners in the CLI's order, a fresh Exec per pass. The cold pass
   computes every cell into a fresh result-cache directory; the warm
   pass re-reads it. This is the only workload with the harness and the
   interpreter ground truth (table1, train runs, fig1) on the critical
   path. The workloads are fixed by Table I; the seed is not used. *)

module H = Mda_harness
module W = Mda_workloads

let name = "paper-regen"

let scale = 0.05

type runner = ?opts:H.Experiment.options -> unit -> H.Experiment.rendered

let experiments : (string * runner) list =
  [ ("table1", H.Table1.run);
    ("sharedlib", H.Sharedlib.run);
    ("ablate-trapcost", H.Ablation.trap_cost);
    ("ablate-chaining", H.Ablation.chaining);
    ("ablate-flush", H.Ablation.flush);
    ("table2", H.Table2.run);
    ("table3", H.Table3.run);
    ("table4", H.Table4.run);
    ("fig1", H.Fig1.run);
    ("fig10", H.Fig10.run);
    ("fig11", H.Fig11.run);
    ("fig12", H.Fig12.run);
    ("fig13", H.Fig13.run);
    ("fig14", H.Fig14.run);
    ("fig15", H.Fig15.run);
    ("fig16", H.Fig16.run);
    ("figsa", H.Figsa.run) ]

let exp_metric n = "harness.exp_s." ^ n

let layers =
  let d name unit better = { Schema.name; unit; better } in
  List.map (fun (n, _) -> d (exp_metric n) "s" Schema.Lower) experiments
  @ [ d "harness.cells_computed" "count" Schema.Lower;
      d "harness.cells_deduped" "count" Schema.Higher;
      d "harness.warm_us_per_cell" "us" Schema.Lower;
      Bench.overhead_decl name ]

(* --- the golden files, rendered at the options the golden tests use ------- *)

let golden_opts exec =
  { H.Experiment.scale = 0.02; benchmarks = [ "164.gzip"; "410.bwaves"; "188.ammp" ]; exec }

let golden : (string * runner) list =
  [ ("table1", H.Table1.run); ("fig16", H.Fig16.run); ("figsa", H.Figsa.run) ]

let golden_path n = Bench.repo_file (Filename.concat (Filename.concat "test" "golden") (n ^ ".txt"))

(* --- result-cache directories --------------------------------------------- *)

(* A fresh Exec over a result cache in [dir]; [dir] must not be stale. *)
let exec_in dir = H.Exec.create ~jobs:1 ~cache:(H.Result_cache.create ~dir ()) ()

(* Every experiment through [exec]: the rendered output, and the
   seconds of each experiment's run and rendering. *)
let render_all ?(span = fun _ f -> f ()) exec =
  let opts = { H.Experiment.scale; benchmarks = W.Spec.selected_names; exec = Some exec } in
  let buf = Buffer.create 65536 in
  let secs =
    List.map
      (fun ((n, run) : string * runner) ->
        let text, s = Measure.timed (fun () -> span n (fun () -> H.Experiment.render (run ~opts ()))) in
        Buffer.add_string buf text;
        s)
      experiments
  in
  (Buffer.contents buf, Array.of_list secs)

let exec_ok checks label exec =
  let c = H.Exec.counters exec in
  Bench.check checks
    (c.H.Exec.failed = 0 && H.Exec.failures exec = [])
    (lazy (Printf.sprintf "%s pass: %d Exec failures" label c.H.Exec.failed))

type pass = {
  cold : string;
  cold_s : float array;  (** per experiment *)
  warm_s : float array;  (** per experiment *)
  counters : H.Exec.counters;  (** of the cold pass *)
  served : int;  (** cells the warm pass served from the cache *)
}

(* One cold pass into a fresh cache directory, then one warm pass over
   it through a fresh Exec; every output checked. More warm passes per
   round did not narrow the warm rate's spread between runs. *)
let cold_warm ?span ctx checks =
  let dir = Filename.concat ctx.Bench.tmp "paper-regen-cache" in
  Bench.remove_tree dir;
  let cold_exec = exec_in dir in
  let cold, cold_s = render_all ?span cold_exec in
  exec_ok checks "cold" cold_exec;
  let warm_exec = exec_in dir in
  let warm, warm_s = render_all warm_exec in
  exec_ok checks "warm" warm_exec;
  let wc = H.Exec.counters warm_exec in
  Bench.check checks
    (wc.H.Exec.computed = 0)
    (lazy (Printf.sprintf "warm pass recomputed %d cells" wc.H.Exec.computed));
  Bench.check checks (String.equal cold warm) (lazy "warm output differs from cold output");
  Bench.remove_tree dir;
  { cold;
    cold_s;
    warm_s;
    counters = H.Exec.counters cold_exec;
    served = wc.H.Exec.cache_hits + wc.H.Exec.memo_hits }

(* The untimed warm-up: table1, fig16 and figsa at the golden options,
   cold then warm through a result cache, each equal to its golden
   file. *)
let golden_check ctx checks =
  let dir = Filename.concat ctx.Bench.tmp "paper-regen-golden" in
  Bench.remove_tree dir;
  List.iter
    (fun label ->
      let exec = exec_in dir in
      List.iter
        (fun ((n, run) : string * runner) ->
          let text = H.Experiment.render (run ~opts:(golden_opts (Some exec)) ()) in
          let expected = Schema.read_file (golden_path n) in
          Bench.check checks
            (expected = Ok text)
            (lazy
              (Printf.sprintf "%s (%s pass) differs from %s" n label (golden_path n))))
        golden)
    [ "cold"; "warm" ];
  Bench.remove_tree dir

(* Set-up: the fresh result-cache directory and the Exec over it that a
   cold pass starts from, as [mdabench all] creates them before its
   first experiment. The rows are synthesised per cell inside the cold
   pass, so they are timed work, not set-up. Timed 25 times, each into
   a directory of its own. *)
let setup ctx =
  let samples =
    Array.init 25 (fun i ->
        let dir = Filename.concat ctx.Bench.tmp (Printf.sprintf "paper-regen-setup-%d" i) in
        let _, s = Measure.timed (fun () -> exec_in dir) in
        Bench.remove_tree dir;
        s)
  in
  Measure.stat_of samples

(* [wall] is the cold pass; [ops_per_s] the cells a warm pass serves
   per second. *)
let measure (ctx : Bench.ctx) checks =
  let setup = setup ctx in
  let reference = ref None and warm = ref [] and served = ref 0 in
  let round () =
    let p = cold_warm ctx checks in
    (match !reference with
    | None -> reference := Some p.cold
    | Some r ->
      Bench.check checks (String.equal r p.cold) (lazy "cold output differs between repetitions"));
    warm := p.warm_s :: !warm;
    served := p.served;
    p.cold_s
  in
  let rounds =
    Measure.rounds ~warmup:(fun () -> golden_check ctx checks) ~seconds:ctx.seconds round
  in
  { Bench.setup; rounds; ops_per_s = Measure.rate !served (Measure.total (Array.of_list !warm)) }

let sum = Array.fold_left ( +. ) 0.

let trace (ctx : Bench.ctx) checks =
  golden_check ctx checks;
  let untraced = cold_warm ctx checks in
  let spans = Spans.create () in
  let p = cold_warm ~span:(fun n f -> Spans.within spans (exp_metric n) f) ctx checks in
  let self = Spans.self_times spans in
  List.map (fun (n, _) -> (exp_metric n, Measure.single (List.assoc (exp_metric n) self))) experiments
  @ [ ("harness.cells_computed", Measure.single (float_of_int p.counters.H.Exec.computed));
      ("harness.cells_deduped", Measure.single (float_of_int p.counters.H.Exec.memo_hits));
      ("harness.warm_us_per_cell", Measure.single (1e6 *. sum p.warm_s /. float_of_int p.served));
      ( Bench.trace_overhead name,
        Bench.overhead_pct ~traced:(sum p.cold_s) ~untraced:(sum untraced.cold_s) ) ]

let workload = { Bench.name; layers; measure; trace }
