(* Figure SA: the static-analysis-guided mechanism against the paper's
   five, on the 21-benchmark set.

   For each benchmark the alignment-congruence dataflow pass
   (Mda_analysis.Dataflow) classifies every static memory operand from
   the program image alone; the first three columns report what
   fraction of *dynamic* memory references the verdicts cover (each
   interpreter-profiled site weighted by its reference count). The
   runtime columns compare the SA-guided mechanism under both
   unknown-operand policies — SA-eh falls back to exception handling on
   unclassified operands, SA-seq emits inline MDA sequences for them —
   against the best EH / DPEH configurations and Direct, normalized to
   EH.

   The analysis itself runs inline (it is static — no simulation); all
   six runtime columns go through the plan-then-execute layer.

   The note lines report the residual trap counts: SA-seq must take
   zero alignment traps when the analysis is sound on the benchmark
   set (every operand is either proven aligned, or reached through a
   trap-free path). *)

module Bt = Mda_bt
module A = Mda_analysis
module T = Mda_util.Tabular

let runs =
  [ ("SA-eh", Cell.Static_analysis { unknown = Bt.Mechanism.Sa_fallback });
    ("SA-seq", Cell.Static_analysis { unknown = Bt.Mechanism.Sa_seq });
    ("DPEH", Experiment.best_dpeh_spec);
    ("Direct", Cell.Direct) ]

let run ?(opts = Experiment.default_options) () =
  let scale = opts.Experiment.scale in
  let ex = Experiment.exec_of opts in
  Exec.prefetch ex
    (List.concat_map
       (fun name ->
         Cell.interp ~scale name
         :: Cell.mech ~scale Experiment.best_eh_spec name
         :: List.map (fun (_, spec) -> Cell.mech ~scale spec name) runs)
       opts.benchmarks);
  let table =
    T.create
      [| T.col "Benchmark";
         T.col ~align:T.Right "%aligned";
         T.col ~align:T.Right "%misaligned";
         T.col ~align:T.Right "%unknown";
         T.col ~align:T.Right "SA-eh";
         T.col ~align:T.Right "SA-seq";
         T.col ~align:T.Right "DPEH";
         T.col ~align:T.Right "Direct" |]
  in
  let norms = List.map (fun (l, _) -> (l, ref [])) runs in
  let push l v = List.assoc l norms := v :: !(List.assoc l norms) in
  let sa_eh_traps = ref 0L and sa_seq_traps = ref 0L in
  let census = ref (0, 0, 0) in
  List.iter
    (fun name ->
      let analysis = Mda_mech.Mech_spec.analyze (Cell.subject ~scale name) in
      let al, mis, unk = A.Dataflow.census analysis in
      let cal, cmis, cunk = !census in
      census := (cal + al, cmis + mis, cunk + unk);
      (* dynamic coverage: weight each profiled site by its reference
         count under the analysis verdict for its address *)
      let sites = Exec.sites ex (Cell.interp ~scale name) in
      let refs = Array.make 3 0 in
      Array.iter
        (fun s ->
          let k =
            match A.Dataflow.classify analysis s.Cell.addr with
            | Bt.Mechanism.Align_aligned -> 0
            | Bt.Mechanism.Align_misaligned -> 1
            | Bt.Mechanism.Align_unknown -> 2
          in
          refs.(k) <- refs.(k) + s.Cell.refs)
        sites;
      let total = max 1 (refs.(0) + refs.(1) + refs.(2)) in
      let frac k = Experiment.pct (100.0 *. float_of_int refs.(k) /. float_of_int total) in
      let base = Exec.cycles ex (Cell.mech ~scale Experiment.best_eh_spec name) in
      let cells =
        List.map
          (fun (label, spec) ->
            let stats = Exec.stats ex (Cell.mech ~scale spec name) in
            (match label with
            | "SA-eh" -> sa_eh_traps := Int64.add !sa_eh_traps stats.Bt.Run_stats.traps
            | "SA-seq" -> sa_seq_traps := Int64.add !sa_seq_traps stats.Bt.Run_stats.traps
            | _ -> ());
            let n =
              Experiment.normalized ~baseline:base (Experiment.cycles stats)
            in
            push label n;
            Experiment.f2 n)
          runs
      in
      T.add_row table (Array.of_list ((name :: List.map frac [ 0; 1; 2 ]) @ cells)))
    opts.benchmarks;
  let geo l = Experiment.geomean !(List.assoc l norms) in
  T.add_row table
    [| "geomean"; ""; ""; "";
       Experiment.f2 (geo "SA-eh");
       Experiment.f2 (geo "SA-seq");
       Experiment.f2 (geo "DPEH");
       Experiment.f2 (geo "Direct") |];
  let cal, cmis, cunk = !census in
  { Experiment.title =
      "Figure SA: static-analysis-guided translation vs the paper's mechanisms \
       (runtime normalized to Exception Handling)";
    table;
    notes =
      [ Printf.sprintf "static census over all benchmarks: %d aligned, %d misaligned, %d unknown sites"
          cal cmis cunk;
        Printf.sprintf "residual alignment traps: SA-seq %Ld (must be 0), SA-eh %Ld (unknown operands only)"
          !sa_seq_traps !sa_eh_traps ]
  }
