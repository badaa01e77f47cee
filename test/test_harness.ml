(* Smoke and regression tests for the experiment harness: every
   table/figure runs on a reduced workload, produces the right row
   structure, and is deterministic. *)

module H = Mda_harness
module W = Mda_workloads

let small_opts =
  { H.Experiment.scale = 0.02;
    benchmarks = [ "164.gzip"; "410.bwaves"; "188.ammp" ];
    exec = None }

(* every runner of [mdabench all], in its order *)
let test_all_experiments_run () =
  List.iter
    (fun (name, _, (run : H.Paper.runner)) ->
      let rendered = run ~opts:small_opts () in
      let text = H.Experiment.render rendered in
      Alcotest.(check bool) (name ^ " produced output") true (String.length text > 0);
      let csv = H.Experiment.to_csv rendered in
      Alcotest.(check bool) (name ^ " produced CSV") true (String.length csv > 0))
    H.Paper.experiments

let row_count rendered = List.length (Mda_util.Tabular.rows rendered.H.Experiment.table)

let test_row_counts () =
  (* per-benchmark experiments: one row per benchmark (+ summary rows) *)
  let n = List.length small_opts.H.Experiment.benchmarks in
  Alcotest.(check int) "table1 covers all 54" (List.length W.Spec.all_names)
    (row_count (H.Table1.run ~opts:{ small_opts with H.Experiment.scale = 0.02 } ()));
  Alcotest.(check int) "table3 one row per benchmark" n
    (row_count (H.Table3.run ~opts:small_opts ()));
  Alcotest.(check int) "fig16 rows = benchmarks + geomean" (n + 1)
    (row_count (H.Fig16.run ~opts:small_opts ()));
  Alcotest.(check int) "fig10 rows = benchmarks + geomean" (n + 1)
    (row_count (H.Fig10.run ~opts:small_opts ()))

let test_experiments_deterministic () =
  let render_fig12 () = H.Experiment.to_csv (H.Fig12.run ~opts:small_opts ()) in
  Alcotest.(check string) "fig12 deterministic" (render_fig12 ()) (render_fig12 ())

let test_fig16_normalization () =
  (* the EH column must be exactly 1.00 on every benchmark row *)
  let rendered = H.Fig16.run ~opts:small_opts () in
  List.iter
    (fun row ->
      if row.(0) <> "geomean" then
        Alcotest.(check string) ("EH normalized: " ^ row.(0)) "1.00" row.(1))
    (Mda_util.Tabular.rows rendered.H.Experiment.table)

let test_table3_shape () =
  (* bwaves has large undetected volume; ammp none *)
  let rendered = H.Table3.run ~opts:small_opts () in
  let rows = Mda_util.Tabular.rows rendered.H.Experiment.table in
  let get name =
    match List.find_opt (fun r -> r.(0) = name) rows with
    | Some r -> r.(1)
    | None -> Alcotest.failf "missing row %s" name
  in
  Alcotest.(check string) "ammp has none" "0" (get "188.ammp");
  Alcotest.(check bool) "bwaves has many" true (get "410.bwaves" <> "0")

let test_ablations_run () =
  let opts = { small_opts with H.Experiment.benchmarks = [ "164.gzip" ] } in
  List.iter
    (fun ((name, run) : string * (?opts:H.Experiment.options -> unit -> H.Experiment.rendered)) ->
      let rendered = run ~opts () in
      Alcotest.(check bool) (name ^ " ran") true (row_count rendered > 0))
    [ ("chaining", H.Ablation.chaining); ("flush", H.Ablation.flush) ]

let test_sharedlib_attribution () =
  let opts =
    { H.Experiment.scale = 0.2;
      benchmarks = [ "164.gzip"; "483.xalancbmk"; "188.ammp" ];
      exec = None }
  in
  let rendered = H.Sharedlib.run ~opts () in
  let rows = Mda_util.Tabular.rows rendered.H.Experiment.table in
  let share name =
    match List.find_opt (fun r -> r.(0) = name) rows with
    | Some r -> r.(3)
    | None -> Alcotest.failf "missing row %s" name
  in
  (* paper Section II: >90% for gzip and xalancbmk; ammp has no lib MDAs *)
  let pct s = try float_of_string (String.sub s 0 (String.length s - 1)) with _ -> -1. in
  Alcotest.(check bool) "gzip mostly lib" true (pct (share "164.gzip") > 90.);
  Alcotest.(check bool) "xalancbmk mostly lib" true (pct (share "483.xalancbmk") > 90.);
  Alcotest.(check string) "ammp none" "0%" (share "188.ammp")

let test_experiment_helpers () =
  Alcotest.(check (float 1e-9)) "normalized" 1.25
    (H.Experiment.normalized ~baseline:100. 125.);
  Alcotest.(check (float 1e-9)) "gain positive when faster" 25.
    (H.Experiment.gain_pct ~baseline:125. 100.);
  Alcotest.(check string) "pct format" "3.5%" (H.Experiment.pct 3.49)

let suite =
  [ ( "harness",
      [ Alcotest.test_case "all experiments run" `Slow test_all_experiments_run;
        Alcotest.test_case "row counts" `Slow test_row_counts;
        Alcotest.test_case "deterministic" `Slow test_experiments_deterministic;
        Alcotest.test_case "fig16 normalization" `Slow test_fig16_normalization;
        Alcotest.test_case "table3 shape" `Slow test_table3_shape;
        Alcotest.test_case "ablations run" `Slow test_ablations_run;
        Alcotest.test_case "shared-library attribution" `Slow test_sharedlib_attribution;
        Alcotest.test_case "helpers" `Quick test_experiment_helpers ] ) ]
