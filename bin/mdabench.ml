(* mdabench: regenerate every table and figure of the paper, run single
   benchmarks under any mechanism, and inspect workloads.

   Examples:
     mdabench table1
     mdabench fig16 --scale 0.5
     mdabench run 410.bwaves --mechanism eh
     mdabench all --jobs 4 --csv-dir results/
     mdabench all --scale 0.1 --no-cache
     mdabench list *)

open Cmdliner
module H = Mda_harness
module Bt = Mda_bt
module W = Mda_workloads
module F = Mda_fault
module Srv = Mda_server
module Spec = Mda_mech.Mech_spec
module A = Mda_analysis
module P = Mda_host.Peephole
module Obs = Mda_obs

(* --- the argument spine: every flag shared by two commands, once ------- *)

(* The positional workload name. Commands where --replay, --from or
   --program can stand in for it take it optionally. *)
let bench_pos doc = Arg.(pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let bench_arg doc = Arg.required (bench_pos doc)

let bench_opt_arg doc = Arg.value (bench_pos doc)

(* Hand-written workloads: [Workload.instantiate] dispatches any name
   ending in ".asm" to the textual assembler, so a file path can stand
   wherever a benchmark name can. The [--program] flag is the explicit
   spelling of that. *)
let program_arg =
  let doc =
    "Run a hand-written assembly file as the workload (equivalent to passing the path as \
     $(i,BENCHMARK); see $(b,mdabench asm) for the grammar)."
  in
  Arg.(value & opt (some string) None & info [ "program" ] ~docv:"FILE.asm" ~doc)

(* BENCHMARK or --program, never both; [None] when neither is given *)
let workload_arg ~cmd doc =
  let pick bench program =
    match (bench, program) with
    | Some _, Some _ ->
      Printf.eprintf "mdabench %s: give either BENCHMARK or --program, not both\n" cmd;
      exit 1
    | None, p -> p
    | b, None -> b
  in
  Term.(const pick $ bench_opt_arg doc $ program_arg)

let required_workload_arg ~cmd doc =
  let need = function
    | Some name -> name
    | None ->
      Printf.eprintf "mdabench %s: BENCHMARK or --program FILE.asm required\n" cmd;
      exit 1
  in
  Term.(const need $ workload_arg ~cmd doc)

(* A comma-separated list; empty when the flag is absent. *)
let names_arg names ~docv ~doc =
  Term.map (List.map String.trim)
    Arg.(value & opt (list string) [] & info names ~docv ~doc)

let benchmarks_arg doc = names_arg [ "benchmarks" ] ~docv:"NAMES" ~doc

(* An explicit benchmark list plus the --program file; [default] when
   both are absent. *)
let targets ~default benchmarks program =
  match benchmarks @ Option.to_list program with [] -> default | names -> names

let scale_arg ?(default = 1.0)
    ?(doc = "Workload volume multiplier (1.0 = ~300k memory references per benchmark).") () =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "invalid scale %S: expected a finite number > 0" s))
  in
  let factor = Arg.conv (parse, Arg.conv_printer Arg.float) in
  Arg.(value & opt factor default & info [ "scale" ] ~docv:"FACTOR" ~doc)

let seed_arg ~default doc = Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

let limit_arg ~default doc = Arg.(value & opt int default & info [ "limit" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Fan experiment cells out over $(docv) worker processes (1 = sequential, no fork)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let capacity_arg =
  let doc =
    "Bound every mechanism's code cache to $(docv) live host instructions (LRU-by-block \
     eviction; retranslation on re-dispatch). Interpreter cells have no code cache and \
     are unaffected."
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "invalid cache capacity %S: expected an integer >= 1" s))
  in
  let insns = Arg.conv (parse, Arg.conv_printer Arg.int) in
  Arg.(value & opt (some insns) None & info [ "cache-capacity" ] ~docv:"INSNS" ~doc)

(* [-m] of run/trace/hot: a run-family label, default eh *)
let mechanism_arg ~doc =
  Arg.(
    value
    & opt Spec.run_conv (Spec.Mech Spec.best_eh)
    & info [ "m"; "mechanism" ] ~docv:"MECH" ~doc)

let mode_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "inter" | "interprocedural" -> Ok A.Dataflow.Interprocedural
    | "intra" | "intraprocedural" -> Ok A.Dataflow.Intraprocedural
    | _ -> Error (`Msg (Printf.sprintf "unknown analysis mode %S (inter | intra)" s))
  in
  let mode =
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (A.Dataflow.mode_name m))
  in
  Arg.(
    value
    & opt mode A.Dataflow.Interprocedural
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"analysis engine: inter (whole-program, default) | intra (supergraph baseline)")

(* --- the peephole rewrite tier ----------------------------------------- *)

let rules_file_arg =
  let doc =
    "Enable the validator-proved peephole rewrite tier with the rule file $(docv) (mined \
     by $(b,mdabench mine)); applications are counted in the peephole_hits / \
     peephole_saved counters."
  in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"FILE" ~doc)

(* Load + well-formedness-check a rule file; hard exit on any problem —
   a malformed rule file must never silently run without its tier. *)
let load_rules = function
  | None -> None
  | Some path -> (
    match P.load path with
    | Error msg ->
      Printf.eprintf "mdabench: cannot load rules: %s\n" msg;
      exit 1
    | Ok rs -> (
      try Some (P.activate rs)
      with Invalid_argument msg ->
        Printf.eprintf "mdabench: bad rule file %s: %s\n" path msg;
        exit 1))

let rules_arg = Term.(const load_rules $ rules_file_arg)

(* --- tracing ------------------------------------------------------------ *)

(* The output file paired with the sink that fills it. *)
let trace_out_arg =
  let doc =
    "Also write the complete event trace as JSONL to $(docv) (session-tagged under \
     $(b,serve)). Tracing is a pure observation artifact: stdout is byte-identical with \
     and without this flag."
  in
  Term.map
    (Option.map (fun file -> (file, Obs.Trace.create ())))
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* The one trace writer. Its note goes to stderr: instrumentation never
   changes stdout. *)
let write_trace ~mechanism ~bench ~scale ~stats (file, sink) =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Obs.Trace.to_jsonl ~mechanism ~bench ~scale ~stats sink));
  Printf.eprintf "[mdabench] wrote %s (%d events, schema v%d)\n%!" file
    (Obs.Trace.length sink) Obs.Trace.schema_version

(* --- cache checks ------------------------------------------------------- *)

(* The DBT invariant checker ([`Selfcheck]) and the symbolic translation
   validator ([`Validate]) over the live code cache a run left behind, in
   the order given: each report's text, whether every check passed, and
   the validator's budget bail-outs. The bail-outs also land in the run's
   counter registry, so any reader of it sees proof-coverage gaps. *)
let check_cache checks rt =
  let cache = rt.Bt.Runtime.cache in
  List.fold_left
    (fun (texts, ok, bailouts) check ->
      match check with
      | `Selfcheck ->
        let c = A.Check.run cache in
        (texts @ [ Format.asprintf "%a" A.Check.pp_report c ], ok && A.Check.ok c, bailouts)
      | `Validate ->
        let v = A.Validator.run ~cache ~block_of:(Bt.Runtime.guest_block rt) in
        let b = A.Validator.budget_bailouts v in
        Bt.Counters.addi rt.Bt.Runtime.counters Bt.Counters.Validator_bailouts b;
        ( texts @ [ Format.asprintf "%a" A.Validator.pp_report v ],
          ok && A.Validator.ok v,
          bailouts + b ))
    ([], true, 0) checks

(* Print the reports; exit code 2 on any violation. *)
let report_checks checks rt =
  let texts, ok, _ = check_cache checks rt in
  List.iter print_endline texts;
  if ok then 0 else 2

(* --- experiments -------------------------------------------------------- *)

(* One plan-then-execute context per invocation, bundled with the scale
   and benchmark subset every experiment reads: [mdabench all] hands the
   same options to every experiment, so identical cells run once. *)
let opts_arg =
  let no_cache =
    let doc = "Bypass the persistent result cache: neither read nor write it." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let cache_dir =
    let doc = "Persistent result-cache directory." in
    Arg.(
      value & opt string H.Result_cache.default_dir & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let timeout =
    let doc =
      "Kill any cell running longer than $(docv) seconds of wall clock; the worker is \
       respawned and the cell reported as failed. Needs $(b,--jobs) > 1 (the sequential \
       path has no separate process to kill)."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let make scale benchmarks jobs no_cache cache_dir timeout capacity =
    let cache = if no_cache then None else Some (H.Result_cache.create ~dir:cache_dir ()) in
    let benchmarks =
      if benchmarks = [] then H.Experiment.default_options.H.Experiment.benchmarks
      else benchmarks
    in
    { H.Experiment.scale;
      benchmarks;
      exec = Some (H.Exec.create ~jobs ?timeout ?capacity ?cache ()) }
  in
  Term.(
    const make $ scale_arg ()
    $ benchmarks_arg "Comma-separated benchmark subset (defaults to the paper's 21 selected)."
    $ jobs_arg $ no_cache $ cache_dir $ timeout $ capacity_arg)

let csv_dir_arg =
  let doc = "Also write each experiment's rows as CSV into this directory." in
  Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)

(* Run one experiment and print it. Timing and cache accounting go to
   stderr so stdout stays byte-identical across --jobs settings and
   cache states. *)
let run_experiment opts csv_dir (name, _, (run : H.Paper.runner)) =
  let exec = H.Experiment.exec_of opts in
  let before = H.Exec.counters exec in
  let t0 = Unix.gettimeofday () in
  let rendered = run ~opts () in
  let secs = Unix.gettimeofday () -. t0 in
  let delta = H.Exec.diff_counters (H.Exec.counters exec) before in
  Printf.eprintf "[mdabench] %s: %s (cells: %d computed, %d cache hits, %d deduped%s)\n%!"
    name
    (Mda_util.Stats.duration secs)
    delta.H.Exec.computed delta.H.Exec.cache_hits delta.H.Exec.memo_hits
    (if delta.H.Exec.failed > 0 then Printf.sprintf ", %d FAILED" delta.H.Exec.failed
     else "");
  print_string (H.Experiment.render rendered);
  Option.iter
    (fun dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (H.Experiment.to_csv rendered));
      Printf.printf "wrote %s\n%!" path)
    csv_dir

let experiment_cmd ((name, desc, _) as exp) =
  let doc = Printf.sprintf "Regenerate %s: %s." name desc in
  let run opts csv_dir =
    run_experiment opts csv_dir exp;
    0
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ opts_arg $ csv_dir_arg)

let all_cmd =
  let doc =
    "Regenerate every table and figure, deduping identical cells across experiments."
  in
  let run opts csv_dir =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun exp ->
        run_experiment opts csv_dir exp;
        print_newline ())
      H.Paper.experiments;
    let secs = Unix.gettimeofday () -. t0 in
    let exec = H.Experiment.exec_of opts in
    let c = H.Exec.counters exec in
    let served = c.H.Exec.cache_hits and fresh = c.H.Exec.computed in
    let pct =
      if served + fresh = 0 then 0
      else int_of_float (100.0 *. float_of_int served /. float_of_int (served + fresh))
    in
    Printf.eprintf
      "[mdabench] all: %s total; %d cells (%d computed, %d cache hits, %d deduped); \
       cache-served=%d%%\n%!"
      (Mda_util.Stats.duration secs)
      (served + fresh + c.H.Exec.memo_hits)
      fresh served c.H.Exec.memo_hits pct;
    List.iter
      (fun (cell, e) -> Printf.eprintf "[mdabench] FAILED %s: %s\n%!" (H.Cell.describe cell) e)
      (H.Exec.failures exec);
    if c.H.Exec.failed > 0 then 1 else 0
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ opts_arg $ csv_dir_arg)

(* --- run a single benchmark under one mechanism ------------------------ *)

let run_cmd =
  let doc = "Run one benchmark under one mechanism and print its statistics." in
  let mech_arg = mechanism_arg ~doc:(String.concat " | " (List.map fst Spec.run_labels)) in
  let threshold_arg =
    Arg.(value & opt int 50 & info [ "threshold" ] ~docv:"N" ~doc:"heating threshold")
  in
  let selfcheck_arg =
    let doc =
      "After the run, validate the code cache with the DBT invariant checker (patch-site \
       map, patched branches, chain edges, multi-version guards); non-zero exit on any \
       violation."
    in
    Arg.(value & flag & info [ "selfcheck" ] ~doc)
  in
  let validate_arg =
    let doc =
      "After the run, prove every translated block equivalent to its guest block with the \
       symbolic translation validator (and run its trap-freedom/clobber/resumability \
       lints); non-zero exit on any violation."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let corrupt_arg =
    (* test hook: deliberately corrupt the cache bookkeeping before the
       checks, so the exit-code contract can be exercised *)
    let doc = "Corrupt the code-cache site map before checking (testing aid)." in
    Arg.(value & flag & info [ "corrupt-cache" ] ~doc)
  in
  let run name mech scale threshold selfcheck validate corrupt trace rules =
    match mech with
    | Spec.Interp { native } ->
      let stats = (H.Cell.compute (H.Cell.make ~scale mech name)).H.Cell.stats in
      Option.iter (write_trace ~mechanism:(Spec.print_run mech) ~bench:name ~scale ~stats) trace;
      Format.printf "%a@." Bt.Run_stats.pp stats;
      let mode = if native then "native" else "interpreter" in
      if selfcheck then
        Format.printf "selfcheck: nothing to check (no code cache in %s mode)@." mode;
      if validate then
        Format.printf "validate: nothing to check (no code cache in %s mode)@." mode;
      0
    | Spec.Mech spec ->
      let stats, t, _ =
        H.Cell.run ?sink:(Option.map snd trace) ?rules (H.Cell.subject ~scale name)
          (Spec.with_heating threshold spec)
      in
      Option.iter (write_trace ~mechanism:(Spec.print_run mech) ~bench:name ~scale ~stats) trace;
      Format.printf "%a@." Bt.Run_stats.pp stats;
      (match rules with
      | None -> ()
      | Some rs ->
        Printf.printf "peephole: %d rewrite(s) applied, %d modelled cycle(s) saved (static, digest %s)\n"
          (P.total_hits rs) (P.total_saved rs) (P.file_digest rs));
      let cache = t.Bt.Runtime.cache in
      if corrupt then
        (* a site record outside the code store and naming an unknown
           block: invalid under every mechanism's bookkeeping *)
        Bt.Code_cache.register_site cache ~pc:(Bt.Code_cache.length cache)
          { Bt.Code_cache.guest_addr = 0;
            block_start = 0xdead_0000;
            op =
              { Mda_host.Mda_seq.kind = `Load; data = 0; base = 0; disp = 0; width = 4;
                signed = false } };
      report_checks
        ((if selfcheck then [ `Selfcheck ] else []) @ if validate then [ `Validate ] else [])
        t
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run
      $ required_workload_arg ~cmd:"run" "e.g. 410.bwaves (or --program FILE.asm)"
      $ mech_arg $ scale_arg () $ threshold_arg $ selfcheck_arg $ validate_arg $ corrupt_arg
      $ trace_out_arg $ rules_arg)

(* --- analyze: dump the static congruence census ------------------------ *)

let sa_policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "seq" | "sa-seq" -> Ok Bt.Mechanism.Sa_seq
    | "eh" | "sa-eh" | "fallback" -> Ok Bt.Mechanism.Sa_fallback
    | _ -> Error (`Msg (Printf.sprintf "unknown sa policy %S (seq | eh)" s))
  in
  Arg.conv
    ( parse,
      fun fmt p ->
        Format.pp_print_string fmt
          (match p with Bt.Mechanism.Sa_seq -> "seq" | Bt.Mechanism.Sa_fallback -> "eh") )

let class_string = function
  | Bt.Mechanism.Align_aligned -> "aligned"
  | Bt.Mechanism.Align_misaligned -> "misaligned"
  | Bt.Mechanism.Align_unknown -> "unknown"

(* The census block shared by [mdabench analyze] and [mdabench aot
   --census]: summary counts, the budget-overflow region if the block
   budget cut discovery short, per-function results, per-site table. *)
let print_census ?(sites = true) (a : A.Dataflow.t) =
  let aligned, misaligned, unknown = A.Dataflow.census a in
  Printf.printf "engine: %s, %d blocks, %d block visits to fixpoint, %s\n"
    (A.Dataflow.mode_name a.A.Dataflow.mode)
    a.A.Dataflow.blocks a.A.Dataflow.iterations
    (if a.A.Dataflow.complete then "complete" else "INCOMPLETE");
  (match a.A.Dataflow.overflow with
  | None -> ()
  | Some (entry, seen) ->
    Printf.printf
      "budget overflow: discovery stopped in the region entered at %#x after %d blocks \
       (its sites are unknown)\n"
      entry seen);
  Printf.printf "census: %d aligned, %d misaligned, %d unknown (%d sites)\n" aligned
    misaligned unknown
    (aligned + misaligned + unknown);
  if a.A.Dataflow.functions <> [] then begin
    let t =
      Mda_util.Tabular.create
        [| Mda_util.Tabular.col "function";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "blocks";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "call-sites";
           Mda_util.Tabular.col "returns";
           Mda_util.Tabular.col "esp-delta";
           Mda_util.Tabular.col "complete" |]
    in
    List.iter
      (fun (f : A.Dataflow.fn) ->
        Mda_util.Tabular.add_row t
          [| Printf.sprintf "%#x" f.A.Dataflow.fn_entry;
             string_of_int f.A.Dataflow.fn_blocks;
             string_of_int f.A.Dataflow.fn_calls;
             (if f.A.Dataflow.fn_returns then "yes" else "no");
             (match f.A.Dataflow.fn_esp_delta with
             | Some d -> Printf.sprintf "%+d" d
             | None -> "?");
             (if f.A.Dataflow.fn_complete then "yes" else "NO") |])
      a.A.Dataflow.functions;
    print_string (Mda_util.Tabular.render t)
  end;
  if sites then begin
    let t =
      Mda_util.Tabular.create
        [| Mda_util.Tabular.col "site";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "width";
           Mda_util.Tabular.col "kind";
           Mda_util.Tabular.col "effective address";
           Mda_util.Tabular.col "class" |]
    in
    List.iter
      (fun (s : A.Dataflow.site) ->
        Mda_util.Tabular.add_row t
          [| Printf.sprintf "%#x" s.A.Dataflow.addr;
             string_of_int s.A.Dataflow.width;
             (match s.A.Dataflow.kind with
             | `Load -> "load"
             | `Store -> "store"
             | `Both -> "rmw");
             Format.asprintf "%a" A.Congruence.pp s.A.Dataflow.ea;
             class_string s.A.Dataflow.cls |])
      (A.Dataflow.sites_sorted a);
    print_string (Mda_util.Tabular.render t)
  end

let analyze_cmd =
  let doc =
    "Dump the static alignment-congruence census of a benchmark: what the whole-program \
     dataflow analysis proves about every static memory operand, with no execution and \
     no profile. Shows the per-function interprocedural results (call sites, ESP \
     deltas, completeness) and each site's abstract effective address and verdict."
  in
  let compare_arg =
    let doc = "Also run the other engine and print both censuses." in
    Arg.(value & flag & info [ "compare" ] ~doc)
  in
  let max_blocks_arg =
    let doc = "Block budget for CFG discovery (exercises overflow reporting)." in
    Arg.(value & opt (some int) None & info [ "max-blocks" ] ~docv:"N" ~doc)
  in
  let run name scale mode compare max_blocks =
    let w = W.Workload.instantiate ~scale name in
    let mem = W.Workload.fresh_memory w in
    let analyze mode =
      A.Dataflow.analyze ?max_blocks ~mode mem ~entry:(W.Workload.entry w)
    in
    Printf.printf "== static congruence analysis: %s ==\n" name;
    print_census (analyze mode);
    if compare then begin
      let other =
        match mode with
        | A.Dataflow.Interprocedural -> A.Dataflow.Intraprocedural
        | A.Dataflow.Intraprocedural -> A.Dataflow.Interprocedural
      in
      Printf.printf "\n-- %s engine, for comparison --\n" (A.Dataflow.mode_name other);
      print_census ~sites:false (analyze other)
    end;
    0
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run
      $ bench_arg "e.g. 410.bwaves or stack.frames"
      $ scale_arg () $ mode_arg $ compare_arg $ max_blocks_arg)

(* --- aot: static whole-image translation -------------------------------- *)

let aot_cmd =
  let doc =
    "Statically translate a benchmark's whole image ahead of time and execute the \
     immutable pre-populated code cache with translation disabled, checking the final \
     guest memory against the pure-interpreter oracle. Prints the static-vs-dynamic \
     comparison against the same analysis run as a dynamic Static_analysis mechanism."
  in
  let policy_arg =
    Arg.(
      value
      & opt sa_policy_conv Bt.Mechanism.Sa_seq
      & info [ "m"; "unknown" ] ~docv:"POLICY"
          ~doc:
            "unknown-site policy: seq (defensive sequences, trap-free) | eh (plain ops, \
             OS fixup on every unknown-site MDA — the immutable cache never patches)")
  in
  let census_arg =
    let doc = "Also print the full static census (as $(b,mdabench analyze))." in
    Arg.(value & flag & info [ "census" ] ~doc)
  in
  let validate_arg =
    let doc =
      "Prove every AOT translation equivalent to its guest block with the symbolic \
       translation validator; non-zero exit on any violation."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let run name scale unknown census validate mode rules =
    let subject = H.Cell.subject ~scale name in
    (* ground truth: a pure-interpreter run over an identical image *)
    let entry, imem = subject.Spec.image () in
    let istats, _ = Bt.Runtime.interpret_program ~mem:imem ~entry () in
    let idigest = Mda_machine.Memory.digest imem in
    (* the AOT run *)
    let astats, rt, p = H.Cell.run ~mode ?rules subject (H.Cell.Aot { unknown }) in
    let analysis = Option.get p.Spec.analysis and tstats = snd (Option.get p.Spec.aot) in
    let adigest = Mda_machine.Memory.digest rt.Bt.Runtime.cpu.Mda_machine.Cpu.mem in
    (* the same verdicts applied dynamically (translation at dispatch) *)
    let dstats, _, _ =
      H.Cell.run ~mode ?rules subject (H.Cell.Static_analysis { unknown })
    in
    Printf.printf "== AOT: %s ==\n" name;
    let aligned, misaligned, unknown_sites = A.Dataflow.census analysis in
    Printf.printf
      "analysis (%s): %d blocks, %d sites — %d aligned, %d misaligned, %d unknown\n"
      (A.Dataflow.mode_name mode) analysis.A.Dataflow.blocks
      (aligned + misaligned + unknown_sites)
      aligned misaligned unknown_sites;
    Printf.printf
      "static translation: %d blocks, %d guest insns -> %d host insns, %d exits \
       pre-chained\n"
      tstats.Bt.Aot.blocks tstats.Bt.Aot.guest_insns tstats.Bt.Aot.host_insns
      tstats.Bt.Aot.chains;
    let t =
      Mda_util.Tabular.create
        [| Mda_util.Tabular.col "engine";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "cycles";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "runtime translations";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "traps";
           Mda_util.Tabular.col ~align:Mda_util.Tabular.Right "cache insns" |]
    in
    let row label (s : Bt.Run_stats.t) =
      Mda_util.Tabular.add_row t
        [| label;
           Int64.to_string s.Bt.Run_stats.cycles;
           string_of_int s.Bt.Run_stats.translations;
           Int64.to_string s.Bt.Run_stats.traps;
           string_of_int s.Bt.Run_stats.code_len |]
    in
    row "static (aot)" astats;
    row "dynamic (sa)" dstats;
    row "interpreter" istats;
    print_string (Mda_util.Tabular.render t);
    if census then begin
      Printf.printf "\n";
      print_census analysis
    end;
    (* checks: the three acceptance gates of AOT mode *)
    let rc = ref 0 in
    let check label ok detail =
      Printf.printf "%s: %s\n" label (if ok then "ok" else "FAILED " ^ detail);
      if not ok then rc := 2
    in
    check "oracle"
      (astats.Bt.Run_stats.stop = Bt.Run_stats.Halted && String.equal adigest idigest)
      (Printf.sprintf "(stop=%s, memory %s)"
         (Bt.Run_stats.stop_reason_to_string astats.Bt.Run_stats.stop)
         (if String.equal adigest idigest then "identical" else "DIVERGED"));
    check "no runtime translation"
      (astats.Bt.Run_stats.translations = 0 && astats.Bt.Run_stats.patches = 0)
      (Printf.sprintf "(%d translations, %d patches)" astats.Bt.Run_stats.translations
         astats.Bt.Run_stats.patches);
    (* proven-aligned sites execute plain ops: with defensively
       sequenced unknowns (or none at all) every trap would be an
       analysis soundness bug *)
    if unknown = Bt.Mechanism.Sa_seq || unknown_sites = 0 then
      check "zero traps"
        (Int64.equal astats.Bt.Run_stats.traps 0L)
        (Printf.sprintf "(%Ld traps)" astats.Bt.Run_stats.traps)
    else
      Printf.printf "traps: %Ld serviced by OS fixup (unknown sites under eh policy)\n"
        astats.Bt.Run_stats.traps;
    max !rc (report_checks (if validate then [ `Validate ] else []) rt)
  in
  Cmd.v (Cmd.info "aot" ~doc)
    Term.(
      const run
      $ required_workload_arg ~cmd:"aot"
          "e.g. 410.bwaves or stack.frames (or --program FILE.asm)"
      $ scale_arg () $ policy_arg $ census_arg $ validate_arg $ mode_arg $ rules_arg)

(* --- verify: translation-validate every mechanism ---------------------- *)

let verify_cmd =
  let doc =
    "Run the symbolic translation validator and the DBT invariant checker over the code \
     cache each mechanism builds: every translated block is proven equivalent to its \
     guest block, every MDA path trap-free, scratch discipline respected, and every \
     patch slot resumable. Non-zero exit on any proven violation."
  in
  let mech_arg =
    let doc =
      "Verify only this mechanism (default: the six paper mechanisms plus aot — every \
       $(b,run) label except eh+rearrange, sa-seq, interp and native)."
    in
    Arg.(value & opt (some Spec.run_conv) None & info [ "m"; "mechanism" ] ~docv:"MECH" ~doc)
  in
  (* The validator needs the live cache a run leaves behind, so each
     (mechanism, benchmark) cell re-executes the benchmark, then checks.
     Workers return only printable strings — the cache itself does not
     cross the fork boundary. *)
  let verify_cell scale plain_rules (name, spec) =
    (* activate per cell: [active] carries mutable hit counters, and the
       cell may run in a forked worker *)
    let rules = Option.map P.activate plain_rules in
    let _stats, t, _ = H.Cell.run ?rules (H.Cell.subject ~scale name) spec in
    (name, Spec.print_run (Spec.Mech spec), check_cache [ `Validate; `Selfcheck ] t)
  in
  let run mech benchmarks program scale jobs rules =
    (* loaded (and well-formedness checked) once; plain data goes to workers *)
    let plain_rules = Option.map P.rules rules in
    let mechanisms =
      match mech with
      | None ->
        List.filter_map
          (function
            | ("eh+rearrange" | "sa-seq"), _ | _, Spec.Interp _ -> None
            | _, Spec.Mech spec -> Some spec)
          Spec.run_labels
      | Some (Spec.Interp _ as k) ->
        Printf.eprintf "mdabench verify: nothing to verify (no code cache in %s mode)\n"
          (Spec.print_run k);
        exit 1
      | Some (Spec.Mech spec) -> [ spec ]
    in
    let benches = targets ~default:[ List.hd W.Spec.selected_names ] benchmarks program in
    let cells =
      List.concat_map (fun b -> List.map (fun m -> (b, m)) mechanisms) benches
    in
    let results = H.Pool.map ~jobs ~f:(verify_cell scale plain_rules) cells in
    let rc = ref 0 in
    let bailouts = ref 0 in
    Array.iter
      (fun r ->
        match r with
        | Error e ->
          Printf.printf "verify worker FAILED: %s\n" e;
          rc := 1
        | Ok (bench, mname, (texts, ok, cell_bailouts)) ->
          Printf.printf "=== %s / %s ===\n" bench mname;
          List.iter print_endline texts;
          bailouts := !bailouts + cell_bailouts;
          if not ok then rc := 1)
      results;
    Printf.printf "validator budget bail-outs: %d across %d cells%s\n" !bailouts
      (List.length cells)
      (if !bailouts = 0 then " (full proof coverage)" else "");
    if !rc = 0 then
      Printf.printf "verify OK: %d mechanism/benchmark cells validated\n"
        (List.length cells)
    else Printf.printf "verify FAILED\n";
    !rc
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ mech_arg
      $ benchmarks_arg
          "Comma-separated benchmarks to replay (default: the first selected benchmark)."
      $ program_arg
      $ scale_arg ~default:0.05 ~doc:"Workload volume multiplier for the replayed runs." ()
      $ jobs_arg $ rules_arg)

(* --- mine: superoptimize peephole rules out of the workload corpus ----- *)

let mine_cmd =
  let doc =
    "Mine validator-proved peephole rewrite rules from the workload corpus: enumerate \
     register-only host windows from static translations of every image, search for \
     strictly shorter replacements (seeded enumerative search, concrete screening), and \
     keep only candidates the symbolic validator proves fully equivalent — all 32 \
     registers, memory, every residue case, no budget bail-out. Accepted rules are \
     written as a textual rule file ($(b,--rules-out)) that $(b,run)/$(b,aot)/$(b,verify) \
     install with $(b,--rules); screened-but-unproved candidates are exported alongside \
     as validator test fodder. $(b,--replay) re-proves a committed rule file from \
     scratch (the CI gate); $(b,--explain) pretty-prints one rule; $(b,--kill-check) \
     runs the mutation harness with the tier enabled and gates the kill ratio at 95%."
  in
  let budget_arg =
    let doc = "Cap on validator proof attempts across the whole mining run." in
    Arg.(value & opt int 400 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let max_len_arg =
    let doc = "Longest window (in host instructions) to mine." in
    Arg.(value & opt int 4 & info [ "max-len" ] ~docv:"N" ~doc)
  in
  let rules_out_arg =
    let doc =
      "Write accepted rules to $(docv) (and unproved survivors to $(docv).survivors); \
       without it the rule file is printed to stdout."
    in
    Arg.(value & opt (some string) None & info [ "rules-out" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-prove every rule of $(docv) from scratch instead of mining; non-zero exit if \
       any rule no longer proves."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let explain_arg =
    let doc =
      "Pretty-print one rule of the $(b,--rules) file (guest idiom, host before/after, \
       proof summary) instead of mining."
    in
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RULE_ID" ~doc)
  in
  let kill_check_arg =
    let doc =
      "Run the seeded mutation harness over $(docv)'s code cache with the $(b,--rules) \
       tier enabled; non-zero exit if the validator kill ratio drops below 95%."
    in
    Arg.(value & opt (some string) None & info [ "kill-check" ] ~docv:"BENCHMARK" ~doc)
  in
  let replay_file file =
    match P.load file with
    | Error msg ->
      Printf.printf "replay FAILED: %s\n" msg;
      1
    | Ok rs -> (
      match (try Ok (P.activate rs) with Invalid_argument m -> Error m) with
      | Error m ->
        Printf.printf "replay FAILED: malformed rule file: %s\n" m;
        1
      | Ok _ ->
        let rc = ref 0 in
        List.iter
          (fun ((r : P.rule), (report : A.Validator.report)) ->
            if A.Validator.proves report then
              Printf.printf "rule %-8s re-proved: %d residue case(s), %d path pair(s)\n"
                r.P.id report.A.Validator.envs_checked report.A.Validator.paths_checked
            else begin
              Printf.printf "rule %-8s FAILED to re-prove:\n%s" r.P.id
                (Format.asprintf "%a" A.Validator.pp_report report);
              rc := 1
            end)
          (A.Miner.replay rs);
        if !rc = 0 then
          Printf.printf "replay OK: %d rule(s) re-proved from scratch (digest %s)\n"
            (List.length rs) (P.digest rs)
        else Printf.printf "replay FAILED\n";
        !rc)
  in
  let run_kill_check bench scale seed rules_file =
    match load_rules rules_file with
    | None ->
      Printf.eprintf "mdabench mine: --kill-check requires --rules FILE\n";
      1
    | Some _ as rules ->
      let _stats, t, _ =
        H.Cell.run ?rules (H.Cell.subject ~scale bench) H.Cell.Direct
      in
      let cache = t.Bt.Runtime.cache in
      let o = A.Mutate.run ~cache ~block_of:(Bt.Runtime.guest_block t) ~seed () in
      Format.printf "%a@." A.Mutate.pp_outcome o;
      let ratio = A.Mutate.kill_ratio o in
      Printf.printf "kill ratio with peephole tier: %.3f (gate 0.950)\n" ratio;
      if ratio >= 0.95 then 0 else 1
  in
  let mine benchmarks program scale budget max_len seed rules_out =
    let images =
      List.map
        (fun n ->
          let w = W.Workload.instantiate ~scale n in
          (n, W.Workload.fresh_memory w, W.Workload.entry w))
        (targets ~default:W.Spec.selected_names benchmarks program)
    in
    let t0 = Unix.gettimeofday () in
    let o = A.Miner.mine ~budget ~max_len ~seed ~images () in
    let secs = Unix.gettimeofday () -. t0 in
    Printf.eprintf "[mdabench] mine: %s\n%!" (Mda_util.Stats.duration secs);
    Printf.printf
      "mined %d rule(s): %d window(s), %d screened candidate(s), %d proof attempt(s), %d \
       proof failure(s), %d unproved survivor(s)\n"
      (List.length o.A.Miner.rules)
      o.A.Miner.windows o.A.Miner.screened o.A.Miner.proof_attempts
      o.A.Miner.proof_failures
      (List.length o.A.Miner.survivors);
    List.iter
      (fun (r : P.rule) ->
        Printf.printf "  %-8s %d -> %d insns, saves %d cycle(s)/application — %s\n" r.P.id
          (List.length r.P.pattern)
          (List.length r.P.replacement)
          r.P.saves r.P.idiom)
      o.A.Miner.rules;
    (match rules_out with
    | None -> if o.A.Miner.rules <> [] then print_string (P.print o.A.Miner.rules)
    | Some out ->
      P.save out o.A.Miner.rules;
      Printf.printf "wrote %s (digest %s)\n" out (P.digest o.A.Miner.rules);
      if o.A.Miner.survivors <> [] then begin
        let sout = out ^ ".survivors" in
        let oc = open_out sout in
        output_string oc
          "# screened-but-unproved rewrite candidates: each passed concrete screening\n\
           # on random register files but carries no validator theorem — test fodder\n\
           # that must keep failing Validator.check_rewrite.\n";
        List.iteri
          (fun i (window, cand) ->
            Printf.fprintf oc "survivor %d\nwindow:\n" (i + 1);
            List.iter
              (fun insn ->
                Printf.fprintf oc "  %s\n" (Mda_host.Pretty.insn_to_string insn))
              window;
            output_string oc "candidate:\n";
            List.iter
              (fun insn ->
                Printf.fprintf oc "  %s\n" (Mda_host.Pretty.insn_to_string insn))
              cand)
          o.A.Miner.survivors;
        close_out oc;
        Printf.printf "wrote %s (%d survivor(s))\n" sout (List.length o.A.Miner.survivors)
      end);
    0
  in
  let run benchmarks program scale budget max_len seed rules_out replay explain rules_file
      kill_check =
    match (explain, replay, kill_check) with
    | Some id, _, _ -> (
      match load_rules rules_file with
      | None ->
        Printf.eprintf "mdabench mine: --explain requires --rules FILE\n";
        1
      | Some active -> (
        match P.find (P.rules active) id with
        | None ->
          Printf.printf "no rule %S in %s\n" id (Option.get rules_file);
          1
        | Some r ->
          print_string (P.explain r);
          0))
    | None, Some file, _ -> replay_file file
    | None, None, Some bench -> run_kill_check bench scale seed rules_file
    | None, None, None -> mine benchmarks program scale budget max_len seed rules_out
  in
  Cmd.v (Cmd.info "mine" ~doc)
    Term.(
      const run
      $ benchmarks_arg "Comma-separated corpus subset (defaults to the paper's 21 selected)."
      $ program_arg
      $ scale_arg ~default:0.05
          ~doc:
            "Workload volume multiplier for corpus images (mining is static) and for the \
             $(b,--kill-check) benchmark's run."
          ()
      $ budget_arg $ max_len_arg
      $ seed_arg ~default:0 "Seed for vocabulary order and concrete screening vectors."
      $ rules_out_arg $ replay_arg $ explain_arg $ rules_file_arg $ kill_check_arg)

(* --- trace: structured event tracing with JSONL emit and replay -------- *)

(* Run one benchmark under one mechanism with a trace sink attached;
   returns the sink and the run's stats. Shared by trace/hot. *)
let traced_run name mech scale =
  match mech with
  | Spec.Interp _ ->
    Printf.eprintf "mdabench: nothing to trace (no BT events in %s mode)\n"
      (Spec.print_run mech);
    exit 1
  | Spec.Mech spec ->
    let sink = Obs.Trace.create () in
    let stats, rt, _ = H.Cell.run ~sink (H.Cell.subject ~scale name) spec in
    (sink, stats, rt)

let trace_cmd =
  let doc =
    "Trace BT events (translations, traps, patches, OS fixups, chains, rearrangements, \
     retranslations) of a run, cycle-stamped with the simulated clock. $(b,--out) writes \
     the complete run as versioned JSONL; $(b,--replay) reads such a file back and \
     reconstructs the run's statistics from the event stream, failing (exit 2) if they \
     disagree with the recorded ones."
  in
  let mech_arg = mechanism_arg ~doc:"mechanism to trace" in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write the complete trace as JSONL")
  in
  let filter_arg =
    let doc =
      Printf.sprintf "only print these event kinds (comma-separated subset of: %s)"
        (String.concat ", " Obs.Trace.kind_names)
    in
    names_arg [ "filter" ] ~docv:"KINDS" ~doc
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"replay a saved JSONL trace instead of running")
  in
  let replay_file file =
    match Obs.Trace.of_jsonl (In_channel.with_open_bin file In_channel.input_all) with
    | Error e ->
      Printf.printf "replay FAILED: %s\n" e;
      2
    | Ok f -> (
      match Obs.Trace.replay f with
      | Error e ->
        Printf.printf "replay FAILED: %s\n" e;
        2
      | Ok stats ->
        Format.printf "replayed %d events (%s / %s, schema v%d)@.@.%a@."
          (List.length f.Obs.Trace.events)
          f.Obs.Trace.bench f.Obs.Trace.mechanism f.Obs.Trace.version Bt.Run_stats.pp
          stats;
        Format.printf "@.replay OK: event-derived counters match the recorded statistics@.";
        0)
  in
  let run bench mech scale limit out filter replay =
    let unknown = List.filter (fun k -> not (List.mem k Obs.Trace.kind_names)) filter in
    match (replay, bench, unknown) with
    | Some file, _, _ -> replay_file file
    | None, None, _ ->
      Printf.eprintf "mdabench trace: BENCHMARK required (or --replay FILE)\n";
      1
    | None, Some _, k :: _ ->
      Printf.eprintf "mdabench trace: unknown event kind %S\n" k;
      1
    | None, Some name, [] ->
      let sink, stats, _rt = traced_run name mech scale in
      let records = Obs.Trace.records sink in
      let shown = if filter = [] then records else Obs.Trace.filter filter records in
      let printed = ref 0 in
      List.iter
        (fun r ->
          if !printed < limit then begin
            incr printed;
            Format.printf "%a@." Obs.Trace.pp_record r
          end
          else if !printed = limit then begin
            incr printed;
            Format.printf "... (suppressing further events)@."
          end)
        shown;
      Format.printf "@.event totals:@.";
      List.iter
        (fun k ->
          let n =
            List.length
              (List.filter
                 (fun r -> Bt.Runtime.event_kind r.Obs.Trace.ev = k)
                 records)
          in
          if n > 0 then Format.printf "  %-12s %d@." k n)
        Obs.Trace.kind_names;
      Format.printf "@.%a@." Bt.Run_stats.pp stats;
      Option.iter
        (fun file ->
          write_trace ~mechanism:(Spec.print_run mech) ~bench:name ~scale ~stats (file, sink))
        out;
      0
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run
      $ workload_arg ~cmd:"trace" "e.g. 410.bwaves (omit with --replay)"
      $ mech_arg $ scale_arg ()
      $ limit_arg ~default:60 "max events to print"
      $ out_arg $ filter_arg $ replay_arg)

(* --- hot: per-guest-site / per-block attribution ------------------------ *)

let hot_cmd =
  let doc =
    "Show the hottest guest sites (traps, patches, OS fixups, attributed MDA cycles) and \
     most-translated blocks of a run — the per-address view behind the paper's locality \
     argument. Reads a saved trace ($(b,--from)) or runs the benchmark."
  in
  let mech_arg = mechanism_arg ~doc:"mechanism to attribute" in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"rows per table")
  in
  let from_arg =
    Arg.(
      value & opt (some string) None
      & info [ "from" ] ~docv:"FILE" ~doc:"attribute a saved JSONL trace instead of running")
  in
  let print_attribution ~top ~label records stats =
    let attr = Obs.Attribution.of_records ~cost:Mda_machine.Cost_model.default records in
    Format.printf "%s@.@." label;
    Format.printf "hottest guest sites (top %d):@.%s@." top
      (Mda_util.Tabular.render (Obs.Attribution.site_table ~top attr));
    Format.printf "@.most-translated blocks (top %d):@.%s@." top
      (Mda_util.Tabular.render (Obs.Attribution.block_table ~top attr));
    Format.printf
      "@.attributed MDA handling: %s cycles (%.2f%% of the run's %s)@."
      (Mda_util.Stats.with_commas (Int64.of_int (Obs.Attribution.total_mda_cycles attr)))
      (if Int64.equal stats.Bt.Run_stats.cycles 0L then 0.0
       else
         100.0
         *. float_of_int (Obs.Attribution.total_mda_cycles attr)
         /. Int64.to_float stats.Bt.Run_stats.cycles)
      (Mda_util.Stats.with_commas stats.Bt.Run_stats.cycles)
  in
  let run bench mech scale top from =
    match (from, bench) with
    | Some file, _ -> (
      match Obs.Trace.of_jsonl (In_channel.with_open_bin file In_channel.input_all) with
      | Error e ->
        Printf.eprintf "mdabench hot: %s: %s\n" file e;
        2
      | Ok f ->
        print_attribution ~top
          ~label:
            (Printf.sprintf "%s / %s (from %s)" f.Obs.Trace.bench f.Obs.Trace.mechanism
               file)
          f.Obs.Trace.events f.Obs.Trace.stats;
        0)
    | None, None ->
      Printf.eprintf "mdabench hot: BENCHMARK required (or --from FILE)\n";
      1
    | None, Some name ->
      let sink, stats, rt = traced_run name mech scale in
      print_attribution ~top
        ~label:(Printf.sprintf "%s / %s" name (Spec.print_run mech))
        (Obs.Trace.records sink) stats;
      Format.printf "@.counter registry:@.%a@." Bt.Counters.pp (Bt.Runtime.counters rt);
      0
  in
  Cmd.v (Cmd.info "hot" ~doc)
    Term.(
      const run
      $ bench_opt_arg "e.g. 410.bwaves (omit with --from)"
      $ mech_arg $ scale_arg () $ top_arg $ from_arg)

(* --- chaos: fault-injection sweep -------------------------------------- *)

let chaos_cmd =
  let doc =
    "Fault-injection sweep: run every mechanism under $(b,--plans) seeded random fault \
     plans (bounded code cache with eviction, patch-slot exhaustion, refused trap-handler \
     fixups) and check each cell against the pure-interpreter oracle — identical guest \
     state, bounded-cache selfcheck, final degradation, exact trace replay, and \
     termination. Also exercises harness faults: a worker killed mid-item and a garbled \
     result-cache entry."
  in
  let plans_arg =
    Arg.(value & opt int 20 & info [ "plans" ] ~docv:"N" ~doc:"number of random fault plans")
  in
  let mechs_arg =
    let doc =
      "Comma-separated mechanism subset (default: all of direct, static-profiling, \
       dynamic-profiling, eh, dpeh, sa, aot; $(b,--serve) excludes aot)."
    in
    names_arg [ "m"; "mechanisms" ] ~docv:"MECHS" ~doc
  in
  let serve_arg =
    let doc =
      "Multi-tenant serve battery instead of the single-run sweep: each plan is a tenant \
       population with session churn, injected crashes, noisy-neighbour eviction pressure \
       and trap storms, scheduled by the serving layer and checked against per-tenant \
       pure-interpreter oracles."
    in
    Arg.(value & flag & info [ "serve" ] ~doc)
  in
  let inject_arg =
    let doc =
      "Force one synthetic cell failure after the sweep (exercises the failure-report \
       path: FAIL lines, the reproducer command, the non-zero exit)."
    in
    Arg.(value & flag & info [ "inject-failure" ] ~doc)
  in
  (* One report for both batteries: a FAIL block per failed cell, the
     per-mechanism table (the [columns] sum the cells' [counts]), the
     harness-fault lines, the totals, and — on any failure — a one-line
     command that reproduces exactly the failing cells. [cells] are
     (plan, mechanism, problems, counts); no problems means passed. *)
  let report ~serve ?program ~seed ~plans ~mechs ~inject ~columns ~harness cells =
    let failed = List.filter (fun (_, _, problems, _) -> problems <> []) cells in
    List.iter
      (fun (plan, mech, problems, _) ->
        Printf.printf "FAIL %s / %s\n" plan mech;
        List.iter (fun p -> Printf.printf "     %s\n" p) problems)
      failed;
    if inject then
      Printf.printf "FAIL (synthetic) / %s\n     failure injected by --inject-failure\n"
        (List.hd mechs);
    Printf.printf "%-18s %7s %7s" "mechanism" "cells" "failed";
    List.iter (fun (header, width) -> Printf.printf " %*s" width header) columns;
    print_newline ();
    List.iter
      (fun m ->
        let mine = List.filter (fun (_, mech, _, _) -> mech = m) cells in
        let mine_failed = List.filter (fun (_, _, problems, _) -> problems <> []) mine in
        Printf.printf "%-18s %7d %7d" m (List.length mine) (List.length mine_failed);
        List.iteri
          (fun i (_, width) ->
            Printf.printf " %*d" width
              (List.fold_left (fun a (_, _, _, counts) -> a + List.nth counts i) 0 mine))
          columns;
        print_newline ())
      mechs;
    List.iter
      (fun (name, (ok, detail)) ->
        Printf.printf "harness fault: %-32s %s (%s)\n" name
          (if ok then "contained" else "FAIL") detail)
      harness;
    Printf.printf "chaos%s: %d plans x %d mechanisms = %d cells, %d failed\n"
      (if serve then " --serve" else "")
      plans (List.length mechs) (List.length cells)
      (List.length failed + if inject then 1 else 0);
    let failed_mechs =
      List.filter
        (fun m ->
          (inject && m = List.hd mechs)
          || List.exists (fun (_, mech, _, _) -> mech = m) failed)
        mechs
    in
    if failed_mechs <> [] then
      Printf.printf "reproduce with: mdabench chaos%s --seed %d --plans %d%s -m %s\n"
        (if serve then " --serve" else "")
        seed plans
        (match program with Some p -> " --program " ^ p | None -> "")
        (String.concat "," failed_mechs);
    if failed = [] && List.for_all (fun (_, (ok, _)) -> ok) harness && not inject then 0
    else 1
  in
  let run seed plans mechs serve inject program jobs =
    let universe = if serve then F.Mt_chaos.mechanism_names else F.Chaos.mechanism_names in
    let mechs = if mechs = [] then universe else mechs in
    let t0 = Unix.gettimeofday () in
    let report = report ~serve ?program ~seed ~plans ~mechs ~inject in
    match List.filter (fun m -> not (List.mem m universe)) mechs with
    | bad :: _ ->
      Printf.eprintf "unknown mechanism %s (chaos%s knows: %s)\n" bad
        (if serve then " --serve" else "")
        (String.concat ", " universe);
      2
    | [] when serve && program <> None ->
      Printf.eprintf
        "mdabench chaos: --serve runs generated tenant populations and does not take \
         --program\n";
      2
    | [] when serve ->
      let rc =
        report
          ~columns:
            [ ("sessions", 9); ("demoted", 9); ("restarts", 9); ("evicted", 9); ("traps", 7) ]
          ~harness:[]
          (List.map
             (fun (o : F.Mt_chaos.outcome) ->
               ( F.Mt_plan.describe o.plan,
                 o.mech,
                 o.problems,
                 [ o.sessions; o.demotions; o.restarts; o.evictions; o.traps ] ))
             (F.Mt_chaos.run ~jobs ~mechs ~seed ~plans ()))
      in
      Printf.eprintf "[mdabench] chaos --serve: %s\n%!"
        (Mda_util.Stats.duration (Unix.gettimeofday () -. t0));
      rc
    | [] ->
      let cells =
        List.map
          (fun (o : F.Chaos.outcome) ->
            ( F.Plan.describe o.plan,
              o.mech,
              o.problems,
              [ o.evictions; o.patch_faults; o.degraded; o.traps ] ))
          (F.Chaos.run ~jobs ~mechs ?program ~seed ~plans ())
      in
      let rc =
        report
          ~columns:[ ("evictions", 9); ("patch-faults", 12); ("degraded", 9); ("traps", 7) ]
          ~harness:(F.Chaos.harness_faults ()) cells
      in
      Printf.eprintf "[mdabench] chaos: %s\n%!"
        (Mda_util.Stats.duration (Unix.gettimeofday () -. t0));
      rc
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run
      $ seed_arg ~default:42 "master seed of the plan stream"
      $ plans_arg $ mechs_arg $ serve_arg $ inject_arg $ program_arg $ jobs_arg)

(* --- serve: multi-tenant serving front-end ----------------------------- *)

let serve_cmd =
  let doc =
    "Multi-tenant serving: derive $(b,--tenants) deterministic tenant workloads from \
     $(b,--seed), submit $(b,--sessions) sessions per tenant with staggered arrivals, and \
     schedule them over one shared (optionally bounded) code cache with admission \
     control, per-tenant trap-storm demotion and a restarting supervisor. Prints a \
     deterministic aggregate report — throughput, p99 trap-cost proxy, cache hit share, \
     per-tenant evictions/demotions/restarts, and each tenant's shared-vs-isolated cycle \
     ratio — byte-identical across $(b,--jobs) levels."
  in
  let tenants_arg =
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~doc:"number of tenants")
  in
  let sessions_arg =
    Arg.(value & opt int 2 & info [ "sessions" ] ~docv:"M" ~doc:"sessions per tenant")
  in
  let mech_arg =
    let doc = "Mechanism every tenant runs under (the serving layer excludes aot)." in
    Arg.(value & opt string "eh" & info [ "m"; "mechanism" ] ~docv:"MECH" ~doc)
  in
  let max_live_arg =
    Arg.(
      value & opt int 4
      & info [ "max-live" ] ~docv:"N" ~doc:"sessions running concurrently")
  in
  let slice_arg =
    Arg.(
      value & opt int 32
      & info [ "slice-fuel" ] ~docv:"N" ~doc:"dispatch steps per scheduler slice")
  in
  let quota_arg =
    let doc = "Per-tenant translation quota per scheduler round (default: unlimited)." in
    Arg.(value & opt (some int) None & info [ "quota" ] ~docv:"N" ~doc)
  in
  let noisy_arg =
    let doc = "Comma-separated tenant ids given a bloat-heavy noisy-neighbour workload." in
    Arg.(value & opt (list int) [] & info [ "noisy" ] ~docv:"TIDS" ~doc)
  in
  let storm_arg =
    let doc = "Tenant id given a misalignment-heavy trap-storm workload." in
    Arg.(value & opt (some int) None & info [ "storm" ] ~docv:"TID" ~doc)
  in
  let status_string = function
    | None -> "rejected"
    | Some Srv.Session.Running -> "running"
    | Some Srv.Session.Degraded -> "degraded"
    | Some Srv.Session.Halted -> "halted"
    | Some (Srv.Session.Faulted f) -> "faulted:" ^ Srv.Session.fault_to_string f
  in
  let pct num den = if den <= 0 then 0 else 100 * num / den in
  let pct64 num den =
    if Int64.compare den 0L <= 0 then 0L else Int64.div (Int64.mul 100L num) den
  in
  let run tenants sessions seed mech capacity max_live slice quota noisy storm trace jobs =
    if tenants < 1 || sessions < 1 then begin
      Printf.eprintf "mdabench serve: --tenants and --sessions must be >= 1\n";
      2
    end
    else if not (List.mem mech F.Mt_chaos.mechanism_names) then begin
      Printf.eprintf "unknown serve mechanism %s (serve knows: %s)\n" mech
        (String.concat ", " F.Mt_chaos.mechanism_names);
      2
    end
    else begin
      let storm_l = match storm with None -> [] | Some t -> [ t ] in
      (match List.find_opt (fun t -> t < 0 || t >= tenants) (noisy @ storm_l) with
      | Some t -> invalid_arg (Printf.sprintf "tenant id %d out of range (0..%d)" t (tenants - 1))
      | None -> ());
      let t0 = Unix.gettimeofday () in
      let tspecs =
        Srv.Tenants.derive ~noisy ~storm:storm_l ~seed:(Int64.of_int seed) ~tenants ()
      in
      let rng = Mda_util.Rng.create (Int64.of_int seed) in
      let specs =
        List.concat_map
          (fun (ts : Srv.Tenants.spec) ->
            let entry, _ = Srv.Tenants.fresh_mem ts in
            let config =
              Bt.Runtime.default_config (Srv.Tenants.mechanism_of ts mech)
            in
            List.init sessions (fun _ ->
                { Srv.Scheduler.tid = ts.Srv.Tenants.tid;
                  arrival = Mda_util.Rng.int_in rng 0 (2 * sessions);
                  entry;
                  fresh_mem = (fun () -> snd (Srv.Tenants.fresh_mem ts));
                  config;
                  crash_at = None;
                  first_fuel = None }))
          tspecs
      in
      let cfg =
        { Srv.Scheduler.default_config with
          Srv.Scheduler.capacity;
          max_live;
          queue_limit = List.length specs;
          slice_fuel = slice;
          translation_quota = quota }
      in
      let o = Srv.Scheduler.run ?sink:(Option.map snd trace) ~tenants cfg specs in
      let r = o.Srv.Scheduler.report in
      (* isolated per-tenant baselines (each tenant's sessions scheduled
         alone, same knobs) fan out over the worker pool; results come
         back in tenant order, so the report is jobs-invariant *)
      let iso =
        H.Pool.map ~jobs
          ~f:(Srv.Scheduler.isolated_cycles ~tenants cfg specs)
          (List.init tenants Fun.id)
      in
      Printf.printf
        "serve: mechanism=%s tenants=%d sessions/tenant=%d seed=%d cache=%s max-live=%d \
         slice=%d quota=%s\n"
        mech tenants sessions seed
        (match capacity with None -> "unbounded" | Some c -> string_of_int c)
        max_live slice
        (match quota with None -> "unlimited" | Some q -> string_of_int q);
      Printf.printf
        "rounds %d; admitted %d, deferred %d, rejected %d; restarts %d; demotions %d; \
         max-backoff %d\n"
        r.Srv.Scheduler.rounds
        (List.length r.Srv.Scheduler.sessions - r.Srv.Scheduler.admission_rejects)
        r.Srv.Scheduler.admission_defers r.Srv.Scheduler.admission_rejects
        r.Srv.Scheduler.restarts r.Srv.Scheduler.demotions
        r.Srv.Scheduler.max_backoff_used;
      let dispatches =
        List.fold_left
          (fun a (s : Srv.Scheduler.session_report) -> a + s.Srv.Scheduler.dispatches)
          0 r.Srv.Scheduler.sessions
      in
      let hits =
        List.fold_left
          (fun a (s : Srv.Scheduler.session_report) -> a + s.Srv.Scheduler.hits)
          0 r.Srv.Scheduler.sessions
      in
      (* guest insns per thousand cycles *)
      let ipk (st : Bt.Run_stats.t) =
        if Int64.compare st.cycles 0L <= 0 then 0L
        else Int64.div (Int64.mul 1000L st.guest_insns) st.cycles
      in
      let total = o.Srv.Scheduler.agg_stats in
      Printf.printf
        "cycles %Ld; guest insns %Ld; throughput %Ld insns/kcycle; p99 trap cost %Ld \
         cycles\n"
        total.cycles total.guest_insns (ipk total) r.Srv.Scheduler.p99_trap_cycles;
      Printf.printf "shared cache: %d blocks, %d live insns; hit share %d%% (%d/%d); \
                     evictions %d\n\n"
        r.Srv.Scheduler.cache_blocks r.Srv.Scheduler.cache_live_insns
        (pct hits dispatches) hits dispatches r.Srv.Scheduler.evictions;
      Printf.printf "%-4s %-7s %5s %12s %12s %5s %5s %7s %7s %6s %8s %8s %7s\n" "ten"
        "kind" "sess" "guest-insns" "cycles" "ipk" "hit%" "traps" "transl" "evict"
        "restarts" "demoted" "vs-iso";
      List.iter
        (fun (tr : Srv.Scheduler.tenant_report) ->
          let tid = tr.Srv.Scheduler.t_tid in
          let ts = List.nth tspecs tid in
          let kind =
            match ts.Srv.Tenants.kind with
            | Srv.Tenants.Steady -> "steady"
            | Srv.Tenants.Noisy -> "noisy"
            | Srv.Tenants.Storm -> "storm"
          in
          let iso_cycles = match iso.(tid) with Ok c -> c | Error _ -> 0L in
          let st = tr.Srv.Scheduler.t_stats in
          Printf.printf "t%-3d %-7s %5d %12Ld %12Ld %5Ld %4d%% %7Ld %7d %6d %8d %8s %6Ld%%\n"
            tid kind tr.Srv.Scheduler.submissions st.guest_insns st.cycles (ipk st)
            (pct tr.Srv.Scheduler.t_hits tr.Srv.Scheduler.t_dispatches)
            st.traps st.translations tr.Srv.Scheduler.evictions_suffered
            tr.Srv.Scheduler.t_restarts
            (if tr.Srv.Scheduler.demoted then "yes" else "no")
            (pct64 st.cycles iso_cycles))
        r.Srv.Scheduler.tenants;
      Printf.printf "\n%4s %4s %-9s %-9s %8s %10s %12s %12s %6s\n" "sid" "ten" "decision"
        "status" "restarts" "dispatches" "guest-insns" "cycles" "traps";
      List.iter
        (fun (s : Srv.Scheduler.session_report) ->
          let st = s.Srv.Scheduler.stats in
          Printf.printf "%4d t%-3d %-9s %-9s %8d %10d %12Ld %12Ld %6Ld\n"
            s.Srv.Scheduler.sid s.Srv.Scheduler.s_tid
            (Srv.Scheduler.decision_to_string s.Srv.Scheduler.decision)
            (status_string s.Srv.Scheduler.status)
            s.Srv.Scheduler.restarts s.Srv.Scheduler.dispatches
            st.guest_insns st.cycles st.traps)
        r.Srv.Scheduler.sessions;
      Option.iter
        (write_trace ~mechanism:mech ~bench:"serve" ~scale:1.0 ~stats:o.Srv.Scheduler.agg_stats)
        trace;
      Printf.eprintf "[mdabench] serve: %s\n%!"
        (Mda_util.Stats.duration (Unix.gettimeofday () -. t0));
      0
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ tenants_arg $ sessions_arg
      $ seed_arg ~default:42 "derives tenant workloads and the arrival schedule"
      $ mech_arg $ capacity_arg $ max_live_arg $ slice_arg $ quota_arg $ noisy_arg $ storm_arg
      $ trace_out_arg $ jobs_arg)

let list_cmd =
  let doc = "List the experiments, utility commands and modelled benchmarks (Table I rows)." in
  let run () =
    Printf.printf "experiments:\n";
    List.iter
      (fun (name, desc, _) -> Printf.printf "  %-16s %s\n" name desc)
      H.Paper.experiments;
    Printf.printf "\ncommands:\n";
    List.iter
      (fun (name, desc) -> Printf.printf "  %-16s %s\n" name desc)
      [ ("all", "regenerate every table and figure");
        ("run", "run one benchmark under one mechanism (--selfcheck, --validate, --trace-out)");
        ("analyze", "dump the static congruence census of a benchmark (--compare)");
        ("aot", "statically translate a whole image and execute it (--census, --validate)");
        ("verify", "translation-validate the cache every mechanism builds (--rules)");
        ("mine", "mine validator-proved peephole rules (--replay, --explain, --kill-check)");
        ("chaos", "every mechanism under seeded fault plans, checked against the oracle (--serve)");
        ("serve", "multi-tenant session scheduling over a shared code cache (--tenants, --sessions)");
        ("trace", "cycle-stamped BT events; JSONL emit (--out) and replay (--replay)");
        ("hot", "hottest guest sites and blocks by trap/MDA cycle cost");
        ("info", "describe a benchmark's synthesized groups");
        ("asm", "assemble a hand-written .asm workload (parse, encode, census)");
        ("fuzz-asm", "roundtrip-fuzz the textual assemblers with minimised reproducers");
        ("disasm", "decode a benchmark's encoded image and show the guest program");
        ("disasm-host", "show translated host code for a block") ];
    Printf.printf "\nbenchmarks:\n";
    List.iter
      (fun name ->
        let row = W.Spec.find name in
        Printf.printf "  %-16s %-9s NMI=%-5d ratio=%5.2f%% %s\n" name
          (W.Spec.suite_name row.W.Spec.suite)
          row.W.Spec.nmi
          (row.W.Spec.ratio *. 100.)
          (if W.Spec.is_selected name then "[selected]" else ""))
      W.Spec.all_names;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let info_cmd =
  let doc = "Describe how a benchmark is synthesized (groups, behaviours, volumes)." in
  let run name scale =
    let w = W.Workload.instantiate ~scale name in
    let row = W.Workload.paper_row w in
    Printf.printf "%s (%s)
" name (W.Spec.suite_name row.W.Spec.suite);
    Printf.printf "paper: NMI %d, MDAs %s, ratio %.2f%%
" row.W.Spec.nmi
      (Mda_util.Stats.sci_notation row.W.Spec.mdas)
      (row.W.Spec.ratio *. 100.);
    Printf.printf "synthesized: %d refs, %d MDAs expected (scale %.2f)

"
      (W.Workload.expected_refs w) (W.Workload.expected_mdas w) scale;
    Printf.printf "%-14s %-6s %-6s %-6s %-6s %-10s %s
" "group" "sites" "execs"
      "width" "bloat" "placement" "behaviour";
    List.iter
      (fun ((g : W.Gen.group), _) ->
        let behaviour =
          match g.behavior with
          | W.Gen.Aligned -> "aligned"
          | W.Gen.Misaligned -> "always misaligned"
          | W.Gen.Late { onset } -> Printf.sprintf "misaligns after %d execs" onset
          | W.Gen.Input_dep -> "misaligned on ref input only"
          | W.Gen.Mixed { period } ->
            Printf.sprintf "misaligned %d/%d of executions" (period - 1) period
          | W.Gen.Rare { period } -> Printf.sprintf "misaligned 1/%d of executions" period
        in
        Printf.printf "%-14s %-6d %-6d %-6d %-6d %-10s %s%s
" g.W.Gen.label g.sites
          g.execs g.width g.bloat
          (if g.lib then "shared-lib" else "app")
          behaviour
          (if g.via_call then " [via call]" else ""))
      w.W.Workload.program.W.Gen.groups;
    0
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ bench_arg "e.g. 410.bwaves" $ scale_arg ())

let disasm_cmd =
  let doc =
    "Decode a benchmark's encoded guest image back to text. The listing comes from the \
     binary decoder, not from the instruction list the assembler kept, so every line \
     also witnesses one decode(encode(i)) = i roundtrip."
  in
  let run name scale limit =
    let w = W.Workload.instantiate ~scale name in
    let p = w.W.Workload.program.W.Gen.asm_program in
    match Mda_guest.Decode.decode_all p.Mda_guest.Asm.image with
    | Error e ->
      Format.printf "disasm: %a@." Mda_guest.Decode.pp_error e;
      2
    | Ok decoded ->
      let n = List.length decoded in
      Printf.printf "%s: %d guest instructions, %d bytes\n" name n
        (Bytes.length p.Mda_guest.Asm.image);
      List.iteri
        (fun i (pos, insn) ->
          if i < limit then
            Format.printf "%#8x:  %a@."
              (p.Mda_guest.Asm.base + pos)
              Mda_guest.Pretty.pp_insn insn)
        decoded;
      if n > limit then Printf.printf "... (%d more)\n" (n - limit);
      0
  in
  Cmd.v (Cmd.info "disasm" ~doc)
    Term.(
      const run
      $ bench_arg "e.g. 470.lbm or FILE.asm"
      $ scale_arg ()
      $ limit_arg ~default:80 "max instructions to print")

let disasm_host_cmd =
  let doc =
    "Translate a benchmark's first blocks and show the generated host (alphalite) code."
  in
  let policy_arg =
    let policy_conv =
      Arg.conv
        ( (function
          | "normal" -> Ok Bt.Translate.Normal
          | "seq" -> Ok Bt.Translate.Seq_always
          | "multi" -> Ok Bt.Translate.Multi
          | s -> Error (`Msg (Printf.sprintf "unknown policy %S" s))),
          fun fmt p ->
            Format.pp_print_string fmt
              (match p with
              | Bt.Translate.Normal -> "normal"
              | Seq_always -> "seq"
              | Multi -> "multi") )
    in
    Arg.(
      value & opt policy_conv Bt.Translate.Normal
      & info [ "policy" ] ~docv:"POLICY" ~doc:"normal | seq | multi")
  in
  let run name scale limit policy =
    let w = W.Workload.instantiate ~scale name in
    let mem = W.Workload.fresh_memory w in
    let cache = Bt.Code_cache.create () in
    (match Bt.Block.discover mem ~pc:(W.Workload.entry w) with
    | Error e -> Format.printf "block discovery failed: %a@." Bt.Block.pp_error e
    | Ok block ->
      let entry = Bt.Translate.translate ~cache ~policy_of:(fun _ -> policy) block in
      Format.printf "block %#x: %d guest insns -> %d host insns (entry %d)@.@."
        block.Bt.Block.start (Bt.Block.length block)
        (Bt.Code_cache.length cache) entry;
      Format.printf "guest:@.";
      Array.iteri
        (fun i insn ->
          Format.printf "  %#8x:  %a@." block.Bt.Block.addrs.(i) Mda_guest.Pretty.pp_insn
            insn)
        block.Bt.Block.insns;
      Format.printf "@.host (with encoded words):@.";
      for pc = 0 to min (limit - 1) (Bt.Code_cache.length cache - 1) do
        let insn = Bt.Code_cache.fetch cache pc in
        let word = Mda_host.Encode.encode ~pc insn in
        Format.printf "  %6d:  %08x  %a@." pc word Mda_host.Pretty.pp_insn insn
      done;
      if Bt.Code_cache.length cache > limit then
        Format.printf "  ... (%d more)@." (Bt.Code_cache.length cache - limit));
    0
  in
  Cmd.v (Cmd.info "disasm-host" ~doc)
    Term.(
      const run $ bench_arg "e.g. 470.lbm" $ scale_arg ()
      $ limit_arg ~default:60 "max host instructions"
      $ policy_arg)

(* --- asm: assemble a hand-written workload ------------------------------ *)

let asm_cmd =
  let doc =
    "Assemble a hand-written guest assembly file: parse the text, encode it to bytes, \
     prove the binary decoder recovers the exact instruction stream, and print the \
     static congruence census of the assembled image. See the README for the grammar."
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.asm" ~doc:"assembly source")
  in
  let listing_arg =
    let doc = "Also print the assembled program as a disassembly listing." in
    Arg.(value & flag & info [ "listing" ] ~doc)
  in
  let run file listing mode =
    let text =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg ->
        Printf.eprintf "mdabench asm: %s\n" msg;
        exit 1
    in
    match Mda_guest.Parse.program text with
    | Error e ->
      Format.eprintf "%s: %a@." file Mda_guest.Parse.pp_error e;
      1
    | Ok p -> (
      let n = Array.length p.Mda_guest.Asm.insns in
      Printf.printf "%s: %d instructions, %d bytes at base %#x\n" file n
        (Bytes.length p.Mda_guest.Asm.image)
        p.Mda_guest.Asm.base;
      (* every assembly doubles as a codec roundtrip check *)
      match Mda_guest.Decode.decode_all p.Mda_guest.Asm.image with
      | Error e ->
        Format.printf "decode(encode(program)) FAILED: %a@." Mda_guest.Decode.pp_error e;
        2
      | Ok decoded ->
        let expect =
          Array.to_list
            (Array.mapi
               (fun i insn -> (p.Mda_guest.Asm.offsets.(i) - p.Mda_guest.Asm.base, insn))
               p.Mda_guest.Asm.insns)
        in
        if decoded <> expect then begin
          Printf.printf "decode(encode(program)) FAILED: decoded stream differs\n";
          2
        end
        else begin
          Printf.printf "roundtrip: decode(encode(program)) = program ok\n";
          if listing then
            List.iter
              (fun (pos, insn) ->
                Format.printf "%#8x:  %a@."
                  (p.Mda_guest.Asm.base + pos)
                  Mda_guest.Pretty.pp_insn insn)
              decoded;
          let mem = Mda_machine.Memory.create ~size_bytes:Bt.Layout.mem_size in
          Mda_machine.Memory.load_image mem ~addr:p.Mda_guest.Asm.base
            p.Mda_guest.Asm.image;
          Printf.printf "\n== static congruence analysis ==\n";
          print_census (A.Dataflow.analyze ~mode mem ~entry:p.Mda_guest.Asm.base);
          0
        end)
  in
  Cmd.v (Cmd.info "asm" ~doc) Term.(const run $ file_arg $ listing_arg $ mode_arg)

(* --- fuzz-asm: roundtrip fuzzing of both assemblers --------------------- *)

let fuzz_asm_cmd =
  let doc =
    "Fuzz the textual assemblers of both ISAs: generate seeded random instruction \
     streams and check the four-way roundtrip insn -> pretty -> parse -> encode -> \
     decode -> insn, per instruction and per stream (whole-program text and binary \
     image). The first mismatch is greedily minimised and written out as a runnable \
     .asm reproducer; exit 1."
  in
  let isa_arg =
    Arg.(
      value & opt string "both"
      & info [ "isa" ] ~docv:"ISA" ~doc:"guest | host | both (default)")
  in
  let streams_arg =
    Arg.(
      value & opt int 1000
      & info [ "streams" ] ~docv:"N" ~doc:"instruction streams per ISA")
  in
  let len_arg =
    Arg.(value & opt int 32 & info [ "len" ] ~docv:"N" ~doc:"max instructions per stream")
  in
  let repro_arg =
    Arg.(
      value
      & opt string "fuzz-asm.repro.asm"
      & info [ "repro-out" ] ~docv:"FILE" ~doc:"where to write a minimised reproducer")
  in
  let run isa streams len seed repro_out =
    let isas =
      match isa with
      | "guest" -> [ `Guest ]
      | "host" -> [ `Host ]
      | "both" -> [ `Guest; `Host ]
      | s ->
        Printf.eprintf "mdabench fuzz-asm: unknown --isa %S (guest | host | both)\n" s;
        exit 1
    in
    let t0 = Unix.gettimeofday () in
    let r = W.Asmfuzz.run ~isas ~seed ~streams ~max_len:len () in
    match r.W.Asmfuzz.failure with
    | None ->
      Printf.printf
        "fuzz-asm OK: %d streams, %d instructions roundtripped, zero mismatches (seed \
         %d)\n"
        r.W.Asmfuzz.streams r.W.Asmfuzz.insns seed;
      Printf.eprintf "[mdabench] fuzz-asm: %s\n%!"
        (Mda_util.Stats.duration (Unix.gettimeofday () -. t0));
      0
    | Some f ->
      let oc = open_out repro_out in
      output_string oc f.W.Asmfuzz.repro;
      close_out oc;
      Printf.printf "fuzz-asm FAILED: %s %s at stream %d\n  %s\n" f.W.Asmfuzz.isa
        f.W.Asmfuzz.stage f.W.Asmfuzz.stream f.W.Asmfuzz.detail;
      Printf.printf "minimised reproducer written to %s:\n%s" repro_out
        f.W.Asmfuzz.repro;
      1
  in
  Cmd.v (Cmd.info "fuzz-asm" ~doc)
    Term.(
      const run $ isa_arg $ streams_arg $ len_arg $ seed_arg ~default:42 "generator seed"
      $ repro_arg)

let () =
  let doc = "reproduction of the CGO'09 MDA-handling evaluation" in
  let info = Cmd.info "mdabench" ~version:"1.0.0" ~doc in
  let cmds =
    List.map experiment_cmd H.Paper.experiments
    @ [ all_cmd; run_cmd; analyze_cmd; aot_cmd; verify_cmd; mine_cmd; chaos_cmd;
        serve_cmd; trace_cmd; hot_cmd; list_cmd; info_cmd; asm_cmd; fuzz_asm_cmd;
        disasm_cmd; disasm_host_cmd ]
  in
  (* Typed failures from the translation layer surface as diagnostics,
     not backtraces: a guest instruction the code generator cannot lower
     ([Translate.Error], also re-raised by the runtime as
     [Runtime_error]) is a property of the input program. The code cache
     is guaranteed untouched when these fire. [~catch:false]: cmdliner
     would otherwise swallow the exception as "internal error" before
     this match could see it. *)
  match Cmd.eval' ~catch:false (Cmd.group info cmds) with
  | rc -> exit rc
  | exception Bt.Translate.Error e ->
    Printf.eprintf "mdabench: %s\n" (Bt.Translate.error_to_string e);
    exit 3
  | exception Bt.Runtime.Runtime_error msg ->
    Printf.eprintf "mdabench: %s\n" msg;
    exit 3
  (* a guest load or store outside simulated memory: the input program's
     fault, like an unlowerable instruction *)
  | exception (Mda_machine.Memory.Out_of_bounds _ as e) ->
    Printf.eprintf "mdabench: %s\n" (Printexc.to_string e);
    exit 3
  (* bad user input that bubbles up as a stdlib exception (unknown
     benchmark name, missing trace file): a one-line diagnostic, not a
     backtrace *)
  | exception Invalid_argument msg ->
    Printf.eprintf "mdabench: %s\n" msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "mdabench: %s\n" msg;
    exit 2
