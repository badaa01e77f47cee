(* The benchmark suite's entry point.

     suite.exe [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
               [--out FILE]
     suite.exe compare A.json B.json

   Each selected workload (default: all four) runs its timed rounds in
   its own forked child, one after another, so no two workloads share a
   heap or a core. With --trace every workload runs its traced passes
   instead, whichever were selected, because every per-layer metric
   BENCHMARK.json lists is reported. The run prints every metric with
   its unit, writes the result file (default bench-suite.json), and
   ends with a one-line JSON summary of the end-to-end metrics, or with
   --trace of the per-layer ones. [compare] prints both medians of
   every end-to-end metric per workload against its BENCHMARK.json
   bound and exits 1 when one is out of bound. *)

let workloads = Catalog.workloads

let usage =
  "usage: suite.exe [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n\
  \       suite.exe compare A.json B.json"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("suite: " ^ s); exit 2) fmt

let load_spec () =
  match Schema.load_spec (Bench.repo_file "BENCHMARK.json") with Ok s -> s | Error e -> die "%s" e

(* --- one workload in a forked child ----------------------------------------- *)

(* Run [f] in a child process and return its marshalled result. An
   exception in the child, or its death, is an [Error]. *)
let in_child (f : unit -> Schema.workload_result) : (Schema.workload_result, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : (Schema.workload_result, string) result) [];
    close_out oc;
    flush stdout;
    flush stderr;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try (Marshal.from_channel ic : (Schema.workload_result, string) result)
      with End_of_file | Failure _ -> Error "the workload's process died"
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    (match (r, status) with
    | Ok _, Unix.WEXITED 0 -> r
    | Ok _, _ -> Error "the workload's process exited abnormally"
    | Error _, _ -> r)

let metrics decls named =
  List.map
    (fun (d : Schema.decl) ->
      match List.assoc_opt d.Schema.name named with
      | Some stat -> { Schema.decl = d; stat }
      | None -> failwith ("workload did not measure " ^ d.Schema.name))
    decls

(* The timed rounds of [w] (its end-to-end metrics), or with [trace]
   its traced passes (its per-layer metrics). *)
let result ctx ~trace (w : Bench.workload) () =
  let checks = Bench.checks () in
  let end_to_end, per_layer =
    if trace then ([], metrics w.Bench.layers (w.Bench.trace ctx checks))
    else
      let e = w.Bench.measure ctx checks in
      let r = e.Bench.rounds in
      ( [ { Schema.decl = Schema.setup_s; stat = e.Bench.setup };
          { decl = Schema.wall_s; stat = r.Measure.wall };
          { decl = Schema.ops_per_s; stat = e.Bench.ops_per_s };
          { decl = Schema.peak_heap_mb; stat = Measure.single r.Measure.peak_heap_mb } ],
        [] )
  in
  { Schema.workload = w.Bench.name;
    attempted = checks.Bench.attempted;
    failed = checks.Bench.failed;
    problems = checks.Bench.problems;
    end_to_end;
    per_layer }

let run_one name f =
  Printf.eprintf "[suite] %s ...\n%!" name;
  let t0 = Measure.now_ns () in
  let r =
    match in_child f with
    | Ok r -> r
    | Error e ->
      { Schema.workload = name;
        attempted = 1;
        failed = 1;
        problems = [ e ];
        end_to_end = [];
        per_layer = [] }
  in
  Printf.eprintf "[suite] %s done in %.1f s\n%!" name (Measure.seconds_since t0);
  r

(* --- output ------------------------------------------------------------------ *)

let print_result (r : Schema.workload_result) =
  Printf.printf "== %s: %d/%d checks passed (fail_frac %.4g) ==\n" r.Schema.workload
    (r.Schema.attempted - r.Schema.failed) r.Schema.attempted (Schema.fail_frac r);
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.Schema.problems;
  List.iter
    (fun (m : Schema.metric) ->
      let s = m.Schema.stat in
      if s.Measure.samples > 1 then
        Printf.printf "  %-40s %14.6g %-8s (q1 %.6g, q3 %.6g, n=%d)\n" m.Schema.decl.Schema.name
          s.Measure.median m.Schema.decl.Schema.unit s.Measure.q1 s.Measure.q3 s.Measure.samples
      else
        Printf.printf "  %-40s %14.6g %s\n" m.Schema.decl.Schema.name s.Measure.median
          m.Schema.decl.Schema.unit)
    (r.Schema.end_to_end @ r.Schema.per_layer)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- commands ----------------------------------------------------------------- *)

let run ~names ~seed ~seconds ~trace ~out =
  let spec = load_spec () in
  let selected =
    match names with
    | [] -> workloads
    | _ ->
      List.map
        (fun n ->
          match List.find_opt (fun (w : Bench.workload) -> w.Bench.name = n) workloads with
          | Some w -> w
          | None ->
            die "unknown workload %s (known: %s)" n
              (String.concat ", " (List.map (fun (w : Bench.workload) -> w.Bench.name) workloads)))
        names
  in
  let tmp = ".bench-suite-tmp" in
  Bench.remove_tree tmp;
  Unix.mkdir tmp 0o755;
  let ctx = { Bench.seed; seconds; tmp } in
  (* every per-layer metric needs every workload's traced passes *)
  let selected = if trace then workloads else selected in
  let results =
    List.map (fun (w : Bench.workload) -> run_one w.Bench.name (result ctx ~trace w)) selected
  in
  Bench.remove_tree tmp;
  List.iter print_result results;
  write_file out (Schema.to_string { Schema.seed; seconds; trace; workloads = results });
  Printf.printf "wrote %s\n" out;
  let line, missing = Schema.summary_line ~spec ~trace results in
  List.iter (fun m -> Printf.printf "MISSING metric %s\n" m) missing;
  print_endline line;
  if List.for_all (fun (r : Schema.workload_result) -> r.Schema.failed = 0) results && missing = []
  then 0
  else 1

let compare a b =
  let spec = load_spec () in
  let load p = match Schema.load p with Ok r -> r | Error e -> die "%s" e in
  match Schema.compare ~spec (load a) (load b) with
  | Ok lines ->
    List.iter print_endline lines;
    print_endline "compare: every end-to-end metric within its bound";
    0
  | Error lines ->
    List.iter print_endline lines;
    print_endline "compare: OUT OF BOUND";
    1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | [ "compare"; a; b ] -> compare a b
    | "compare" :: _ -> die "%s" usage
    | _ ->
      let names = ref [] and seed = ref 42 and seconds = ref 10. and trace = ref false in
      let out = ref "bench-suite.json" in
      let num conv flag v =
        match conv v with Some x -> x | None -> die "%s: bad value %S" flag v
      in
      let rec parse = function
        | [] -> ()
        | "--workload" :: v :: rest ->
          names := !names @ [ v ];
          parse rest
        | "--seed" :: v :: rest ->
          seed := num int_of_string_opt "--seed" v;
          parse rest
        | "--seconds" :: v :: rest ->
          seconds := num float_of_string_opt "--seconds" v;
          parse rest
        | "--trace" :: ("0" | "1" as v) :: rest ->
          trace := v = "1";
          parse rest
        | "--trace" :: rest ->
          trace := true;
          parse rest
        | "--out" :: v :: rest ->
          out := v;
          parse rest
        | a :: _ -> die "unexpected argument %s\n%s" a usage
      in
      parse args;
      if !seconds <= 0. then die "--seconds must be positive";
      run ~names:!names ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
  in
  exit code
