(* Tests of the workload generator: every benchmark builds, its
   generator-predicted reference/MDA counts match what the interpreter
   actually measures, and the measured MDA ratios track Table I. *)

module W = Mda_workloads
module Bt = Mda_bt

let interp_run ?(scale = 1.0) ?(input = W.Gen.Ref) name =
  let w = W.Workload.instantiate ~scale ~input name in
  let mem = W.Workload.fresh_memory w in
  let stats, profile =
    Bt.Runtime.interpret_program ~mem ~entry:(W.Workload.entry w) ()
  in
  (w, stats, profile)

(* --- every benchmark builds and runs ---------------------------------- *)

let test_all_benchmarks_build () =
  List.iter
    (fun name ->
      let w = W.Workload.instantiate ~scale:0.02 name in
      Alcotest.(check bool)
        (name ^ " has positive refs")
        true
        (W.Workload.expected_refs w > 0);
      Alcotest.(check (option int))
        (name ^ " library boundary")
        w.W.Workload.program.W.Gen.lib_boundary
        (W.Workload.lib_boundary ~scale:0.02 name))
    W.Spec.all_names

let test_all_selected_run_small () =
  List.iter
    (fun name ->
      let w, stats, _ = interp_run ~scale:0.02 name in
      let expected = Int64.of_int (W.Workload.expected_refs w) in
      Alcotest.(check int64) (name ^ ": refs as predicted") expected
        stats.Bt.Run_stats.memrefs;
      let expected_mdas = Int64.of_int (W.Workload.expected_mdas w) in
      Alcotest.(check int64) (name ^ ": mdas as predicted") expected_mdas
        stats.Bt.Run_stats.mdas)
    W.Spec.selected_names

(* the flush microbenchmark predicts its counts in closed form; each
   name's interpreter cell must measure exactly them *)
let test_flushbench_counts () =
  List.iter
    (fun phases ->
      let name = W.Flushbench.name phases in
      let w = W.Workload.instantiate name in
      let stats = (Mda_harness.Cell.compute (Mda_harness.Cell.interp ~scale:1.0 name)).stats in
      Alcotest.(check int64) (name ^ ": refs as predicted")
        (Int64.of_int (W.Workload.expected_refs w)) stats.Bt.Run_stats.memrefs;
      Alcotest.(check int64) (name ^ ": mdas as predicted")
        (Int64.of_int (W.Workload.expected_mdas w)) stats.Bt.Run_stats.mdas)
    W.Flushbench.phase_counts

(* --- ratio fidelity ---------------------------------------------------- *)

let test_ratio_tracks_table1 () =
  (* full scale: the fixed-length late-onset warm-up phases (which must
     outlast the Figure-10 profiling thresholds) are budgeted for the
     default run length and would distort heavily scaled-down runs *)
  List.iter
    (fun name ->
      let row = W.Spec.find name in
      if row.W.Spec.ratio >= 0.001 then begin
        let _, stats, _ = interp_run ~scale:1.0 name in
        let measured =
          Int64.to_float stats.Bt.Run_stats.mdas /. Int64.to_float stats.Bt.Run_stats.memrefs
        in
        let rel = abs_float (measured -. row.W.Spec.ratio) /. row.W.Spec.ratio in
        if rel > 0.25 then
          Alcotest.failf "%s: measured ratio %.4f vs paper %.4f (rel err %.2f)" name
            measured row.W.Spec.ratio rel
      end)
    W.Spec.selected_names

(* --- input dependence (Table IV machinery) ----------------------------- *)

let test_train_vs_ref_mdas () =
  (* eon has a large input-dependent MDA fraction: the ref input must
     produce strictly more MDAs than train, by roughly input_frac *)
  let _, ref_stats, _ = interp_run ~scale:0.1 ~input:W.Gen.Ref "252.eon" in
  let _, train_stats, _ = interp_run ~scale:0.1 ~input:W.Gen.Train "252.eon" in
  Alcotest.(check bool) "ref has more MDAs than train" true
    (ref_stats.Bt.Run_stats.mdas > train_stats.Bt.Run_stats.mdas)

let test_same_program_both_inputs () =
  (* static profiling requires the two inputs to share the binary *)
  let wr = W.Workload.instantiate ~scale:0.05 ~input:W.Gen.Ref "252.eon" in
  let wt = W.Workload.instantiate ~scale:0.05 ~input:W.Gen.Train "252.eon" in
  Alcotest.(check bytes) "identical images"
    wr.W.Workload.program.W.Gen.asm_program.Mda_guest.Asm.image
    wt.W.Workload.program.W.Gen.asm_program.Mda_guest.Asm.image

(* --- late onset (Table III machinery) ---------------------------------- *)

let test_late_onset_sites_hidden_from_profiling () =
  (* xalancbmk: ~90% of MDA volume is late-onset beyond any threshold;
     dynamic profiling at TH=50 must leave most MDAs undetected (traps) *)
  let w = W.Workload.instantiate ~scale:0.2 "483.xalancbmk" in
  let mem = W.Workload.fresh_memory w in
  let config =
    Bt.Runtime.default_config (Bt.Mechanism.Dynamic_profiling { threshold = 50 })
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:(W.Workload.entry w) in
  let total = W.Workload.expected_mdas w in
  let undetected = Int64.to_float stats.Bt.Run_stats.traps in
  Alcotest.(check bool)
    (Printf.sprintf "most MDAs undetected (%.0f of %d)" undetected total)
    true
    (undetected > 0.5 *. float_of_int total)

let test_biased_benchmark_fully_profiled () =
  (* ammp: no late / input-dependent volume; dynamic profiling at TH=50
     should catch essentially everything *)
  let w = W.Workload.instantiate ~scale:0.05 "188.ammp" in
  let mem = W.Workload.fresh_memory w in
  let config =
    Bt.Runtime.default_config (Bt.Mechanism.Dynamic_profiling { threshold = 50 })
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:(W.Workload.entry w) in
  Alcotest.(check int64) "no undetected MDAs" 0L stats.Bt.Run_stats.traps

(* --- Figure 15 classes ------------------------------------------------- *)

let test_bias_histogram_classes () =
  let _, _, profile = interp_run ~scale:0.1 "400.perlbench" in
  let lt, eq, _gt, always = Bt.Profile.bias_histogram profile in
  Alcotest.(check bool) "has always-misaligned sites" true (always > 0);
  Alcotest.(check bool) "has <50% sites" true (lt > 0);
  Alcotest.(check bool) "has =50% sites" true (eq > 0)

let test_determinism () =
  let _, s1, _ = interp_run ~scale:0.05 "410.bwaves" in
  let _, s2, _ = interp_run ~scale:0.05 "410.bwaves" in
  Alcotest.(check int64) "cycles deterministic" s1.Bt.Run_stats.cycles
    s2.Bt.Run_stats.cycles

let suite =
  [ ( "workloads",
      [ Alcotest.test_case "all 54 benchmarks build" `Quick test_all_benchmarks_build;
        Alcotest.test_case "predicted counts match interpreter" `Quick
          test_all_selected_run_small;
        Alcotest.test_case "ratios track Table I" `Slow test_ratio_tracks_table1;
        Alcotest.test_case "train vs ref MDA volume" `Quick test_train_vs_ref_mdas;
        Alcotest.test_case "same binary for both inputs" `Quick
          test_same_program_both_inputs;
        Alcotest.test_case "late-onset hidden from profiling" `Slow
          test_late_onset_sites_hidden_from_profiling;
        Alcotest.test_case "biased benchmark fully profiled" `Quick
          test_biased_benchmark_fully_profiled;
        Alcotest.test_case "Figure-15 classes present" `Quick test_bias_histogram_classes;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "flush microbenchmark counts match interpreter" `Quick
          test_flushbench_counts ] ) ]
