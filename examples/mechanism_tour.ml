(* Mechanism tour: run one modelled SPEC benchmark under every MDA
   handling mechanism and print a side-by-side comparison — a one-
   benchmark slice of the paper's Figure 16.

     dune exec examples/mechanism_tour.exe -- [benchmark] [scale]
   defaults: 410.bwaves at scale 0.5 *)

module Bt = Mda_bt
module W = Mda_workloads
module H = Mda_harness

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "410.bwaves" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.5
  in
  let row = W.Spec.find name in
  Format.printf "%s (%s): paper NMI %d, MDA ratio %.2f%%@.@." name
    (W.Spec.suite_name row.W.Spec.suite)
    row.W.Spec.nmi
    (row.W.Spec.ratio *. 100.);
  let mechanisms =
    [ ("direct (QEMU-style)", H.Cell.Direct);
      ("static profiling (FX!32-style)", H.Cell.Static_profiling);
      ("dynamic profiling (IA-32 EL-style)", H.Experiment.best_dynamic_spec);
      ("exception handling (this paper)", H.Experiment.best_eh_spec);
      ("EH + rearrangement", H.Cell.Exception_handling { rearrange = true });
      ("DPEH (+retrans +multiversion)", H.Experiment.best_dpeh_spec) ]
  in
  let results =
    List.map
      (fun (label, spec) ->
        let stats, _, _ = H.Experiment.run_spec_rt ~scale spec name in
        (label, stats))
      mechanisms
  in
  let base =
    match List.assoc_opt "exception handling (this paper)" results with
    | Some s -> Int64.to_float s.Bt.Run_stats.cycles
    | None -> assert false
  in
  Format.printf "%-36s %14s %8s %7s %7s %9s@." "mechanism" "cycles" "norm."
    "traps" "patches" "code size";
  List.iter
    (fun (label, (s : Bt.Run_stats.t)) ->
      Format.printf "%-36s %14s %8.2f %7Ld %7d %9d@." label
        (Mda_util.Stats.with_commas s.cycles)
        (Int64.to_float s.cycles /. base)
        s.traps s.patches s.code_len)
    results;
  Format.printf
    "@.norm. < 1.0 is faster than plain exception handling (the paper's baseline).@."
