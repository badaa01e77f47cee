(* Exit-code contract of the mdabench checking flags.

   [run --selfcheck] and [run --validate] must exit non-zero whenever
   their report carries a violation — in every mechanism mode — and the
   interpreter/native modes, which build no code cache, must say so and
   exit 0. The [--corrupt-cache] testing aid plants an invalid site
   record after the run, so the failing branch is reachable without a
   translator bug.

   Runs the real binary (declared as a dune dep); located relative to
   this test executable so the suite works from [dune runtest] and
   [dune exec] alike. *)

let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "mdabench.exe"))

let bench = List.hd Mda_workloads.Spec.selected_names

let slurp = Test_util.slurp

let run_rc args =
  Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" exe args)

let check_rc args expected =
  let rc = run_rc args in
  Alcotest.(check int) (Printf.sprintf "mdabench %s" args) expected rc

(* every translating mode accepts --selfcheck/--validate and exits 0 on
   a clean cache, 2 when the site map is corrupted *)
let cached_modes = [ "direct"; "static"; "dynamic"; "eh"; "eh+rearrange"; "dpeh"; "sa"; "sa-seq" ]

let test_selfcheck_clean () =
  List.iter
    (fun m -> check_rc (Printf.sprintf "run %s -m %s --scale 0.05 --selfcheck" bench m) 0)
    cached_modes

let test_selfcheck_corrupt () =
  List.iter
    (fun m ->
      check_rc
        (Printf.sprintf "run %s -m %s --scale 0.05 --selfcheck --corrupt-cache" bench m)
        2)
    cached_modes

let test_validate_clean () =
  check_rc (Printf.sprintf "run %s -m eh --scale 0.05 --validate" bench) 0;
  check_rc (Printf.sprintf "run %s -m dpeh --scale 0.05 --validate" bench) 0

let test_no_cache_modes () =
  (* nothing to check -> informational message, success *)
  check_rc (Printf.sprintf "run %s -m interp --scale 0.05 --selfcheck --validate" bench) 0;
  check_rc (Printf.sprintf "run %s -m native --scale 0.05 --selfcheck --validate" bench) 0

let test_verify_gate () =
  check_rc (Printf.sprintf "verify --bench %s" bench) 0;
  check_rc (Printf.sprintf "verify --bench %s -m eh+rearrange" bench) 0;
  (* no cache to verify: refuse with non-zero *)
  check_rc "verify -m interp" 1

let test_trace_emit_and_replay () =
  let file =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mda_cli_trace_%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) @@ fun () ->
  (* emit, then replay: the reconstruction gate must pass *)
  check_rc (Printf.sprintf "trace %s -m eh --scale 0.05 --out %s" bench file) 0;
  Alcotest.(check bool) "trace file written" true (Sys.file_exists file);
  check_rc (Printf.sprintf "trace --replay %s" file) 0;
  (* a tampered file must fail the gate with exit 2 *)
  let text = slurp file in
  let oc = open_out file in
  output_string oc (text ^ "{\"t\":\"garbage\"}\n");
  close_out oc;
  check_rc (Printf.sprintf "trace --replay %s" file) 2;
  (* argument contract *)
  check_rc "trace" 1;
  check_rc (Printf.sprintf "trace %s --filter nonsense" bench) 1

let test_hot_command () =
  check_rc (Printf.sprintf "hot %s -m eh --scale 0.05 --top 5" bench) 0;
  check_rc "hot" 1;
  (* interp mode has no BT events to attribute *)
  check_rc (Printf.sprintf "hot %s -m interp" bench) 1

let test_trace_out_does_not_change_stdout () =
  (* the ci.sh gate in miniature: run each command with and without
     --trace-out and require byte-identical stdout *)
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mda_cli_%s_%d" suffix (Unix.getpid ()))
  in
  let out_a = tmp "plain" and out_b = tmp "traced" and trace = tmp "trace.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out_a; out_b; trace ])
  @@ fun () ->
  List.iter
    (fun args ->
      let rc_a = Sys.command (Printf.sprintf "%s %s > %s 2>/dev/null" exe args out_a) in
      let rc_b =
        Sys.command
          (Printf.sprintf "%s %s --trace-out %s > %s 2>/dev/null" exe args trace out_b)
      in
      Alcotest.(check int) (args ^ " exits 0") 0 rc_a;
      Alcotest.(check int) (args ^ " --trace-out exits 0") 0 rc_b;
      Alcotest.(check string) (args ^ ": stdout byte-identical with --trace-out")
        (slurp out_a) (slurp out_b);
      Alcotest.(check bool) (args ^ ": trace artifact written") true (Sys.file_exists trace);
      Alcotest.(check int) (args ^ ": trace replays") 0
        (Sys.command (Printf.sprintf "%s trace --replay %s > /dev/null 2>&1" exe trace));
      Sys.remove trace)
    [ Printf.sprintf "run %s -m eh --scale 0.05" bench;
      Printf.sprintf "run %s -m interp --scale 0.05" bench;
      "serve --tenants 3 --sessions 2 --seed 42" ]

(* --- chaos failure UX and the serve front-end -------------------------- *)

let tmp_file suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mda_cli_%s_%d" suffix (Unix.getpid ()))

let contains ~needle hay =
  let nh = String.length needle and h = String.length hay in
  let rec go i = i + nh <= h && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

(* a failing chaos run must end with a one-line command reproducing
   exactly the failing cells, and exit non-zero; --inject-failure makes
   the failing branch reachable without a real bug *)
let test_chaos_failure_reproducer () =
  let out = tmp_file "chaos_fail.txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ()) @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf "%s chaos --plans 1 -m direct --inject-failure > %s 2>/dev/null" exe
         out)
  in
  Alcotest.(check int) "injected failure exits 1" 1 rc;
  let text = slurp out in
  Alcotest.(check bool) "reproducer line printed" true
    (contains ~needle:"reproduce with: mdabench chaos --seed 42 --plans 1 -m direct" text);
  Alcotest.(check bool) "FAIL line printed" true (contains ~needle:"FAIL (synthetic)" text);
  (* serve mode carries the --serve flag through to the reproducer *)
  let rc =
    Sys.command
      (Printf.sprintf
         "%s chaos --serve --plans 1 -m direct --inject-failure > %s 2>/dev/null" exe out)
  in
  Alcotest.(check int) "injected serve failure exits 1" 1 rc;
  Alcotest.(check bool) "serve reproducer line printed" true
    (contains
       ~needle:"reproduce with: mdabench chaos --serve --seed 42 --plans 1 -m direct"
       (slurp out));
  (* a clean run prints no reproducer and exits 0 *)
  let rc =
    Sys.command
      (Printf.sprintf "%s chaos --serve --plans 1 -m direct > %s 2>/dev/null" exe out)
  in
  Alcotest.(check int) "clean serve chaos exits 0" 0 rc;
  Alcotest.(check bool) "no reproducer on success" false
    (contains ~needle:"reproduce with:" (slurp out));
  (* a hand-written program is part of what failed: the reproducer
     reruns it, not generated workloads *)
  let rc =
    Sys.command
      (Printf.sprintf
         "%s chaos --plans 1 --program %s -m direct --inject-failure > %s 2>/dev/null" exe
         Test_asm.tour_path out)
  in
  Alcotest.(check int) "injected --program failure exits 1" 1 rc;
  Alcotest.(check bool) "reproducer carries --program" true
    (contains
       ~needle:
         (Printf.sprintf "reproduce with: mdabench chaos --seed 42 --plans 1 --program %s -m direct"
            Test_asm.tour_path)
       (slurp out));
  (* serve mode runs generated tenants only: --program is refused, not ignored *)
  check_rc "chaos --serve --program missing.asm" 2

(* a non-finite or non-positive --scale is a usage error, not a
   degenerate workload *)
let test_scale_rejects_nonsense () =
  let err = tmp_file "scale_err.txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ()) @@ fun () ->
  List.iter
    (fun args ->
      let rc = Sys.command (Printf.sprintf "%s %s > /dev/null 2> %s" exe args err) in
      Alcotest.(check bool) (args ^ " exits non-zero") true (rc <> 0);
      Alcotest.(check bool) (args ^ ": no uncaught exception") false
        (contains ~needle:"Fatal error" (slurp err)))
    [ "run 164.gzip --scale nan";
      "table1 --scale inf";
      "run 164.gzip --scale=-1";
      "run 164.gzip --scale=0" ]

(* a guest store outside simulated memory is the program's fault: a
   one-line diagnostic and exit 3, like an unlowerable instruction *)
let test_wild_store_exits_3 () =
  let err = tmp_file "wild_err.txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ()) @@ fun () ->
  List.iter
    (fun m ->
      let args = Printf.sprintf "run --program %s -m %s" Test_asm.wild_store_path m in
      let rc = Sys.command (Printf.sprintf "%s %s > /dev/null 2> %s" exe args err) in
      let lines = String.split_on_char '\n' (String.trim (slurp err)) in
      Alcotest.(check int) (args ^ " exits 3") 3 rc;
      Alcotest.(check int) (args ^ ": one stderr line") 1 (List.length lines);
      Alcotest.(check bool) (args ^ ": names the access") true
        (contains ~needle:"out of bounds" (slurp err));
      Alcotest.(check bool) (args ^ ": no uncaught exception") false
        (contains ~needle:"Fatal error" (slurp err)))
    [ "direct"; "eh"; "interp" ]

(* Cmdliner rejects a repeated option name in a composed term only when
   that command is evaluated, so every subcommand's help must render. *)
let test_every_help_renders () =
  let out = tmp_file "help.txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ()) @@ fun () ->
  Alcotest.(check int) "mdabench --help=plain" 0
    (Sys.command (Printf.sprintf "%s --help=plain > %s" exe out));
  (* in the COMMANDS section, each subcommand's synopsis starts with its
     lower-case name at a 7-space indent *)
  let rec section = function
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> section rest
    | [] -> []
  in
  let rec commands = function
    | line :: rest when line = "" || line.[0] = ' ' ->
      let named =
        String.starts_with ~prefix:"       " line && line.[7] >= 'a' && line.[7] <= 'z'
      in
      (if named then [ List.hd (String.split_on_char ' ' (String.trim line)) ] else [])
      @ commands rest
    | _ -> []
  in
  let commands = commands (section (String.split_on_char '\n' (slurp out))) in
  List.iter
    (fun (name, _, _) ->
      Alcotest.(check bool) (name ^ " listed") true (List.mem name commands))
    Mda_harness.Paper.experiments;
  List.iter (fun c -> check_rc (c ^ " --help=plain") 0) commands

let test_serve_command () =
  (* the aggregate serve report is byte-identical across --jobs levels,
     and argument validation refuses bad input *)
  let out_a = tmp_file "serve_j1.txt" and out_b = tmp_file "serve_j2.txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out_a; out_b ])
  @@ fun () ->
  let serve jobs out =
    Sys.command
      (Printf.sprintf
         "%s serve --tenants 2 --sessions 2 --seed 5 --storm 1 --jobs %d > %s 2>/dev/null"
         exe jobs out)
  in
  Alcotest.(check int) "serve --jobs 1 exits 0" 0 (serve 1 out_a);
  Alcotest.(check int) "serve --jobs 2 exits 0" 0 (serve 2 out_b);
  Alcotest.(check string) "report byte-identical across --jobs" (slurp out_a) (slurp out_b);
  Alcotest.(check bool) "per-tenant table present" true
    (contains ~needle:"storm" (slurp out_a));
  check_rc "serve -m aot" 2;
  check_rc "serve --tenants 0" 2;
  (* a malformed tenant list is a usage error, never an uncaught exception *)
  let err = tmp_file "serve_noisy_err.txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ()) @@ fun () ->
  let rc = Sys.command (Printf.sprintf "%s serve --noisy x > /dev/null 2> %s" exe err) in
  Alcotest.(check bool) "serve --noisy x exits non-zero" true (rc <> 0);
  Alcotest.(check bool) "no uncaught exception" false
    (contains ~needle:"Fatal error" (slurp err))

(* --- the peephole tier on the command line ----------------------------- *)

let rules_file = Test_util.committed_rules


(* [mdabench verify] always prints the bail-out summary line, whether or
   not any proof bailed out — proof coverage must be visible, not only
   its absence. *)
let test_verify_bailout_summary () =
  let out =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mda_cli_verify_%d.txt" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ()) @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf "%s verify --bench %s -m eh --scale 0.05 > %s 2>/dev/null" exe bench
         out)
  in
  Alcotest.(check int) "verify exits 0" 0 rc;
  Alcotest.(check bool) "bail-out summary line printed" true
    (contains ~needle:"validator budget bail-outs:" (slurp out))

let test_mine_replay_and_explain () =
  (* the committed rule file re-proves, and --explain pretty-prints *)
  check_rc (Printf.sprintf "mine --replay %s" rules_file) 0;
  check_rc (Printf.sprintf "mine --explain pr8-001 --rules %s" rules_file) 0;
  check_rc (Printf.sprintf "mine --explain no-such-rule --rules %s" rules_file) 1;
  check_rc "mine --explain pr8-001" 1;
  check_rc "mine --replay /nonexistent.rules" 1

let test_mine_replay_rejects_unprovable () =
  (* a well-formed rule with no theorem behind it must fail the re-prove
     gate: [bis a,b,c; addq c,#1,c] is not [addq a,#1,c] unless b = 0 *)
  let file =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mda_cli_bogus_%d.rules" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) @@ fun () ->
  let oc = open_out file in
  output_string oc
    "rule bogus-001\n\
     idiom: hand-written counterexample\n\
     match:\n\
    \  bis r1, r2, r3\n\
    \  addq r3, #1, r3\n\
     rewrite:\n\
    \  addq r1, #1, r3\n\
     saves: 1\n\
     proof: none\n\
     end\n";
  close_out oc;
  check_rc (Printf.sprintf "mine --replay %s" file) 1

let test_run_with_rules () =
  (* the tier is accepted by every checked runner and reported on stdout *)
  let out =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mda_cli_rules_%d.txt" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ()) @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf
         "%s run 164.gzip -m direct --scale 0.05 --rules %s --validate > %s 2>/dev/null"
         exe rules_file out)
  in
  Alcotest.(check int) "run --rules --validate exits 0" 0 rc;
  Alcotest.(check bool) "peephole summary printed" true
    (contains ~needle:"peephole:" (slurp out));
  check_rc "run 164.gzip -m direct --scale 0.05 --rules /nonexistent.rules" 1

let suite =
  [ ( "cli",
    [ Alcotest.test_case "run --selfcheck exits 0 on clean caches" `Quick
        test_selfcheck_clean;
      Alcotest.test_case "run --selfcheck exits 2 on corrupted caches" `Quick
        test_selfcheck_corrupt;
      Alcotest.test_case "run --validate exits 0 on clean caches" `Quick
        test_validate_clean;
      Alcotest.test_case "interp/native have nothing to check" `Quick test_no_cache_modes;
      Alcotest.test_case "verify gate passes and rejects cache-less modes" `Quick
        test_verify_gate;
      Alcotest.test_case "trace emits and replays" `Quick test_trace_emit_and_replay;
      Alcotest.test_case "hot attributes or refuses" `Quick test_hot_command;
      Alcotest.test_case "--trace-out leaves stdout identical" `Quick
        test_trace_out_does_not_change_stdout;
      Alcotest.test_case "verify prints the bail-out summary" `Quick
        test_verify_bailout_summary;
      Alcotest.test_case "chaos failures print a reproducer" `Quick
        test_chaos_failure_reproducer;
      Alcotest.test_case "serve report is jobs-invariant" `Quick test_serve_command;
      Alcotest.test_case "--scale rejects non-finite and non-positive values" `Quick
        test_scale_rejects_nonsense;
      Alcotest.test_case "every subcommand's help renders" `Quick test_every_help_renders;
      Alcotest.test_case "a wild guest store exits 3" `Quick test_wild_store_exits_3;
      Alcotest.test_case "mine --replay and --explain" `Quick test_mine_replay_and_explain;
      Alcotest.test_case "mine --replay rejects unprovable rules" `Quick
        test_mine_replay_rejects_unprovable;
      Alcotest.test_case "run accepts --rules" `Quick test_run_with_rules ] ) ]
