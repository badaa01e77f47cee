(* Section-II attribution: where do the MDAs come from?

   "We have noticed that more than 90% of MDAs occurred in 164.gzip,
   400.perlbench, and 483.xalancbmk are actually come from shared
   libraries." — the observation that vendor-side alignment enforcement
   cannot fix MDAs, motivating runtime handling.

   The workload generator lays shared-library code out beyond a boundary
   address; this experiment runs the interpreter and attributes each
   MDA's static site to application vs. library code. *)

module W = Mda_workloads
module T = Mda_util.Tabular

let paper_pct = [ ("164.gzip", ">90%"); ("400.perlbench", ">90%"); ("483.xalancbmk", ">90%") ]

let run ?(opts = Experiment.default_options) () =
  let scale = opts.Experiment.scale in
  let ex = Experiment.exec_of opts in
  Exec.prefetch ex (List.map (Cell.interp ~scale) opts.Experiment.benchmarks);
  let table =
    T.create
      [| T.col "Benchmark";
         T.col ~align:T.Right "MDAs";
         T.col ~align:T.Right "from shared lib";
         T.col ~align:T.Right "lib share (sim)";
         T.col ~align:T.Right "paper" |]
  in
  List.iter
    (fun name ->
      let boundary = W.Workload.lib_boundary ~scale name in
      let sites = Exec.sites ex (Cell.interp ~scale name) in
      let total = ref 0 and in_lib = ref 0 in
      Array.iter
        (fun s ->
          total := !total + s.Cell.mdas;
          match boundary with
          | Some b when s.Cell.addr >= b -> in_lib := !in_lib + s.Cell.mdas
          | _ -> ())
        sites;
      let share =
        if !total = 0 then "-"
        else Printf.sprintf "%.0f%%" (100. *. float_of_int !in_lib /. float_of_int !total)
      in
      T.add_row table
        [| name;
           string_of_int !total;
           string_of_int !in_lib;
           share;
           (match List.assoc_opt name paper_pct with Some p -> p | None -> "-") |])
    opts.Experiment.benchmarks;
  { Experiment.title = "Section II: MDA attribution — application vs. shared-library code";
    table;
    notes =
      [ "paper: >90% of the MDAs of gzip/perlbench/xalancbmk come from shared";
        "libraries (libc.so.6, libgfortran.so.6), defeating vendor-side alignment" ] }
