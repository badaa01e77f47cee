(* Golden-output tests: the rendered Table I and Figure 16 at a small,
   fixed scale are committed under test/golden/ and diffed on every
   `dune runtest`. Any change to the simulation, cost model, workload
   generator or table renderer that moves a number shows up here as a
   readable diff instead of a silent drift.

   To regenerate after an intentional change:

     MDA_GOLDEN_WRITE=1 dune exec test/test_main.exe -- test golden

   which rewrites the files in the *source* tree (the path is resolved
   through the dune workspace root). *)

module H = Mda_harness

let golden_opts =
  { H.Experiment.scale = 0.02;
    benchmarks = [ "164.gzip"; "410.bwaves"; "188.ammp" ];
    exec = None }

(* The interprocedural-vs-intraprocedural census on the stack-frame
   microbenchmark: the committed evidence that whole-program analysis
   strictly improves on the supergraph baseline (every width-8 frame
   slot classifies instead of degrading to unknown). *)
let census_stack () =
  let w = Mda_workloads.Workload.instantiate "stack.frames" in
  let mem = Mda_workloads.Workload.fresh_memory w in
  let entry = Mda_workloads.Workload.entry w in
  let buf = Buffer.create 1024 in
  List.iter
    (fun mode ->
      let a = Mda_analysis.Dataflow.analyze ~mode mem ~entry in
      let aligned, misaligned, unknown = Mda_analysis.Dataflow.census a in
      Buffer.add_string buf
        (Printf.sprintf "== stack.frames, %s ==\n" (Mda_analysis.Dataflow.mode_name mode));
      Buffer.add_string buf
        (Printf.sprintf "census: %d aligned, %d misaligned, %d unknown\n" aligned
           misaligned unknown);
      List.iter
        (fun s ->
          Buffer.add_string buf (Format.asprintf "%a\n" Mda_analysis.Dataflow.pp_site s))
        (Mda_analysis.Dataflow.sites_sorted a))
    [ Mda_analysis.Dataflow.Interprocedural; Mda_analysis.Dataflow.Intraprocedural ];
  Buffer.contents buf

(* Every committed peephole rule pretty-printed as [mdabench mine
   --explain] would show it: the committed, diffable evidence of what
   each installed rewrite does and the proof obligation it carries. *)
let explain_rules () =
  match Mda_host.Peephole.load Test_util.committed_rules with
  | Error e -> failwith e
  | Ok rules -> String.concat "\n" (List.map Mda_host.Peephole.explain rules)

(* examples/asm/tour.asm rendered the way [mdabench disasm] lists it:
   assembled, encoded, and decoded back to text. *)
let disasm_tour () =
  let module GA = Mda_guest.Asm in
  match Mda_guest.Parse.program (Test_util.slurp Test_asm.tour_path) with
  | Error e -> Alcotest.failf "tour.asm: %a" Mda_guest.Parse.pp_error e
  | Ok p -> (
    match Mda_guest.Decode.decode_all p.GA.image with
    | Error e -> Alcotest.failf "tour.asm decode: %a" Mda_guest.Decode.pp_error e
    | Ok decoded ->
      String.concat ""
        (List.map
           (fun (pos, insn) ->
             Format.asprintf "%#8x:  %a\n" (p.GA.base + pos) Mda_guest.Pretty.pp_insn insn)
           decoded))

(* Tests run in _build/default/test; the source tree sits behind the
   workspace root recorded by dune. *)
let source_golden name =
  let root = try Sys.getenv "DUNE_SOURCEROOT" with Not_found -> Filename.concat ".." ".." in
  Filename.concat root (Filename.concat "test/golden" (name ^ ".txt"))

let read_file = Test_util.slurp

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* The stdout of one mdabench invocation, which must exit 0: pins the
   chaos tables, the serve report and every [run -m] label end to end,
   through the real binary. *)
let cli args () =
  let out = Filename.temp_file "mda_golden" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let rc = Sys.command (Printf.sprintf "%s %s > %s 2>/dev/null" Test_cli.exe args out) in
  if rc <> 0 then Alcotest.failf "mdabench %s exited %d" args rc;
  read_file out

let run_labels =
  [ "direct"; "static"; "dynamic"; "eh"; "eh+rearrange"; "dpeh"; "sa"; "sa-seq"; "aot";
    "interp"; "native" ]

let cases =
  [ ("table1", fun () -> H.Experiment.render (H.Table1.run ~opts:golden_opts ()));
    (* the only Native path (split-access charge) and the per-site
       profile histogram: the interpreter's two otherwise unpinned views *)
    ("fig1", fun () -> H.Experiment.render (H.Fig1.run ~opts:golden_opts ()));
    (* the heating-threshold sweep: its low-threshold columns are mostly
       phase-1 interpreter cycles *)
    ("fig10", fun () -> H.Experiment.render (H.Fig10.run ~opts:golden_opts ()));
    (* code rearrangement vs plain exception handling: the I-cache
       code-locality figure, so it pins the instruction-fetch model *)
    ("fig11", fun () -> H.Experiment.render (H.Fig11.run ~opts:golden_opts ()));
    ("fig15", fun () -> H.Experiment.render (H.Fig15.run ~opts:golden_opts ()));
    ("fig16", fun () -> H.Experiment.render (H.Fig16.run ~opts:golden_opts ()));
    ("figsa", fun () -> H.Experiment.render (H.Figsa.run ~opts:golden_opts ()));
    (* the trap-cost sweep: its non-default columns are derived from the
       default-cost cells, and must match a full re-simulation *)
    ( "ablate-trapcost",
      fun () -> H.Experiment.render (H.Ablation.trap_cost ~opts:golden_opts ()) );
    (* the only experiment whose runs take the [Full_flush] policy, and
       with it the I-cache invalidation path *)
    ( "ablate-flush",
      fun () -> H.Experiment.render (H.Ablation.flush ~opts:golden_opts ()) );
    ("census-stack", census_stack);
    ("explain-pr8", explain_rules);
    ("disasm-tour", disasm_tour);
    ("chaos-42", cli "chaos --seed 42 --plans 3");
    ("chaos-serve-42", cli "chaos --serve --seed 42 --plans 2");
    ("serve-42", cli "serve --tenants 3 --sessions 2 --seed 42 --storm 2 --noisy 1");
    (* the peephole tier's modelled effect: against run-bwaves-direct,
       fewer cycles and a shorter code cache *)
    ( "run-bwaves-direct-rules",
      cli
        ("run 410.bwaves -m direct --scale 0.05 --selfcheck --rules "
        ^ Filename.quote Test_util.committed_rules) ) ]
  @ List.map
      (fun m ->
        ( "run-bwaves-" ^ m,
          cli (Printf.sprintf "run 410.bwaves -m %s --scale 0.05 --selfcheck" m) ))
      run_labels

let updating () = Sys.getenv_opt "MDA_GOLDEN_WRITE" <> None

let check (name, render) () =
  let actual = render () in
  if updating () then begin
    write_file (source_golden name) actual;
    Printf.printf "golden: wrote %s\n" (source_golden name)
  end
  else begin
    let path = Filename.concat "golden" (name ^ ".txt") in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s — run MDA_GOLDEN_WRITE=1 to create it" path;
    let expected = read_file path in
    if not (String.equal expected actual) then
      Alcotest.failf
        "golden mismatch for %s\n--- expected (%s)\n%s\n--- actual\n%s" name path expected
        actual
  end

let suite =
  [ ("golden", List.map (fun c -> Alcotest.test_case (fst c) `Quick (check c)) cases) ]
