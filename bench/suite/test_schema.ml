(* Unit test of the result schema; runs no workload.

     test_schema.exe BENCHMARK.json

   Checks that every metric name and unit the suite can emit is valid,
   that BENCHMARK.json names only metrics the suite emits (with the same
   unit and direction), that a result file survives a write/read round
   trip and carries every BENCHMARK.json metric, that the one-line
   summary has exactly the keys correct/attempted/failed/metrics, and
   that [compare] passes a file against itself and fails a worse one. *)

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL: %s\n" msg
      end)
    fmt

let decls = Schema.end_to_end @ Catalog.layers

let names_are_valid () =
  List.iter
    (fun (d : Schema.decl) ->
      expect (Schema.valid_name d.Schema.name) "invalid metric name %S" d.Schema.name;
      expect (Schema.valid_unit d.Schema.unit) "invalid unit %S of %s" d.Schema.unit d.Schema.name)
    decls;
  List.iter
    (fun (w : Bench.workload) ->
      expect (Schema.valid_name w.Bench.name) "invalid workload name %S" w.Bench.name)
    Catalog.workloads;
  let names = List.map (fun (d : Schema.decl) -> d.Schema.name) decls in
  expect
    (List.length (List.sort_uniq compare names) = List.length names)
    "metric names are not unique";
  List.iter
    (fun bad -> expect (not (Schema.valid_name bad)) "%S accepted as a name" bad)
    [ ""; "_x"; ".x"; "a b"; "a/b"; "a+b"; String.make 65 'a' ]

let spec_matches (spec : Schema.spec) =
  let agrees (b : Schema.bound_decl) pool =
    match List.find_opt (fun (d : Schema.decl) -> d.Schema.name = b.Schema.d.Schema.name) pool with
    | None -> expect false "BENCHMARK.json metric %s is never emitted" b.Schema.d.Schema.name
    | Some d ->
      expect (d = b.Schema.d) "BENCHMARK.json metric %s: unit or direction disagrees"
        b.Schema.d.Schema.name
  in
  List.iter (fun b -> agrees b Schema.end_to_end) spec.Schema.e2e;
  List.iter (fun b -> agrees b Catalog.layers) spec.Schema.layers;
  List.iter
    (fun (b : Schema.bound_decl) ->
      expect
        (match b.Schema.bound with Some x -> x >= 0. && x <= 0.25 | None -> false)
        "end-to-end metric %s needs a bound in [0, 0.25]" b.Schema.d.Schema.name)
    spec.Schema.e2e;
  expect
    (spec.Schema.workload_names
    = List.map (fun (w : Bench.workload) -> w.Bench.name) Catalog.workloads)
    "BENCHMARK.json workloads differ from the suite's"

(* A result with every metric of every workload, at values that stress
   the number printer. *)
let synthetic ~scale =
  let values = [| 0.1; 1e-9; 123456789.123; -3.5; 42.; 2. /. 3. |] in
  let k = ref 0 in
  let stat () =
    incr k;
    let v = scale *. values.(!k mod Array.length values) in
    { Measure.median = v; q1 = v *. 0.9; q3 = v *. 1.1; samples = 1 + (!k mod 7) }
  in
  { Schema.seed = 7;
    seconds = 2.5;
    trace = true;
    workloads =
      List.map
        (fun (w : Bench.workload) ->
          { Schema.workload = w.Bench.name;
            attempted = 10;
            failed = 0;
            problems = [ "a \"quoted\"\nproblem" ];
            end_to_end = List.map (fun decl -> { Schema.decl; stat = stat () }) Schema.end_to_end;
            per_layer = List.map (fun decl -> { Schema.decl; stat = stat () }) w.Bench.layers })
        Catalog.workloads }

let round_trip (spec : Schema.spec) =
  let r = synthetic ~scale:1. in
  match Schema.of_string (Schema.to_string r) with
  | Error e -> expect false "result does not read back: %s" e
  | Ok back ->
    expect (back = r) "result changed in a write/read round trip";
    List.iter
      (fun (w : Schema.workload_result) ->
        List.iter
          (fun (b : Schema.bound_decl) ->
            expect
              (Schema.find_metric b.Schema.d.Schema.name w.Schema.end_to_end <> None)
              "%s: end-to-end metric %s missing from the result file" w.Schema.workload
              b.Schema.d.Schema.name)
          spec.Schema.e2e)
      back.Schema.workloads;
    let all_layers = List.concat_map (fun w -> w.Schema.per_layer) back.Schema.workloads in
    List.iter
      (fun (b : Schema.bound_decl) ->
        expect
          (Schema.find_metric b.Schema.d.Schema.name all_layers <> None)
          "per-layer metric %s missing from the result file" b.Schema.d.Schema.name)
      spec.Schema.layers

(* The summary of one workload names the end-to-end metrics as they are;
   of several, as <metric>.<workload>, so none is dropped; of a traced
   run, every per-layer metric. *)
let summary (spec : Schema.spec) =
  let r = synthetic ~scale:1. in
  let names l = List.map (fun (b : Schema.bound_decl) -> b.Schema.d.Schema.name) l in
  let e2e = names spec.Schema.e2e in
  let first = List.hd r.Schema.workloads in
  let qualified =
    List.concat_map
      (fun (w : Schema.workload_result) -> List.map (fun n -> n ^ "." ^ w.Schema.workload) e2e)
      r.Schema.workloads
  in
  List.iter
    (fun (what, trace, results, want) ->
      let line, missing = Schema.summary_line ~spec ~trace results in
      expect (missing = []) "%s summary misses %s" what (String.concat ", " missing);
      match Json.of_string line with
      | Ok (Json.Object kvs) ->
        expect
          (List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ])
          "%s summary keys are %s" what (String.concat "," (List.map fst kvs));
        expect (not (String.contains line '\n')) "%s summary is not one line" what;
        (match List.assoc_opt "metrics" kvs with
        | Some (Json.Object ms) ->
          expect (List.map fst ms = want) "%s summary metrics are %s" what
            (String.concat "," (List.map fst ms))
        | _ -> expect false "%s summary metrics is not an object" what)
      | _ -> expect false "%s summary is not a JSON object: %s" what line)
    [ ("one-workload", false, [ first ], e2e);
      ("all-workload", false, r.Schema.workloads, qualified);
      ("traced", true, r.Schema.workloads, names spec.Schema.layers) ]

let comparison (spec : Schema.spec) =
  let a = synthetic ~scale:1. in
  expect (Result.is_ok (Schema.compare ~spec a a)) "a result is out of bound against itself";
  let worse =
    { a with
      Schema.workloads =
        List.map
          (fun (w : Schema.workload_result) ->
            { w with
              Schema.end_to_end =
                List.map
                  (fun (m : Schema.metric) ->
                    let f = if m.Schema.decl.Schema.better = Schema.Lower then 2. else 0.5 in
                    { m with Schema.stat = { m.Schema.stat with Measure.median = f *. m.Schema.stat.Measure.median } })
                  w.Schema.end_to_end })
          a.Schema.workloads }
  in
  expect (Result.is_error (Schema.compare ~spec a worse)) "a doubled time passed compare";
  let failing =
    { a with
      Schema.workloads = List.map (fun w -> { w with Schema.failed = 1 }) a.Schema.workloads }
  in
  expect (Result.is_error (Schema.compare ~spec a failing)) "more failed checks passed compare"

let json_rejects () =
  List.iter
    (fun s -> expect (Result.is_error (Json.of_string s)) "malformed JSON accepted: %S" s)
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} x"; "nul"; "\"unterminated" ];
  expect (Measure.((stat_of [| 1.; 2.; 3.; 4. |]).q1) = 1.25) "exclusive quartiles";
  expect (Measure.((stat_of [| 4.; 1.; 3.; 2. |]).median) = 2.5) "median of an even sample"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  names_are_valid ();
  json_rejects ();
  (match Schema.load_spec path with
  | Error e -> expect false "cannot read %s: %s" path e
  | Ok spec ->
    spec_matches spec;
    round_trip spec;
    summary spec;
    comparison spec);
  if !failures > 0 then begin
    Printf.printf "test_schema: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "test_schema: ok"
