(* Edge-case tests for the DBT runtime: failure injection (jumps into
   garbage, fuel exhaustion), run bounds, state retention across
   retranslation, and the chaining/flush knobs. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module Machine = Mda_machine
module Bt = Mda_bt

let data = Bt.Layout.data_base

(* Assemble a program behind a stack-pointer prologue and load it into
   fresh memory. *)
let load_program build =
  let asm = G.Asm.create () in
  G.Asm.movi asm GI.ESP Bt.Layout.stack_top;
  build asm;
  let program = G.Asm.assemble ~base:Bt.Layout.guest_code_base asm in
  let mem = Machine.Memory.create ~size_bytes:Bt.Layout.mem_size in
  Machine.Memory.load_image mem ~addr:program.G.Asm.base program.G.Asm.image;
  (program, mem)

(* A loop that increments a counter [iters] times:
     for (i = iters; i > 0; i--) body
   [body] receives the asm builder; ECX is the induction variable. *)
let counted_loop asm ~iters body =
  let open G.Asm in
  movi asm GI.ECX iters;
  (* end the preamble block here so the loop body is a block of its own
     (otherwise the body's code is duplicated into the entry block and
     per-site accounting doubles) *)
  let top = fresh_label asm in
  jmp asm top;
  bind asm top;
  body asm;
  addi asm GI.ECX (-1);
  cmpi asm GI.ECX 0;
  jcc asm GI.Gt top

(* --- failure injection ---------------------------------------------------- *)

let test_jump_into_garbage () =
  (* a computed jump into unencoded memory must surface as Runtime_error,
     not a crash or a silent wrong result *)
  let build asm =
    let open G.Asm in
    (* ret pops a bogus return address pointing at zeroed memory *)
    movi asm GI.EAX 0x9000;
    insn asm (GI.Push GI.EAX);
    ret asm
  in
  let program, mem = load_program build in
  let config =
    Bt.Runtime.default_config (Bt.Mechanism.Exception_handling { rearrange = false })
  in
  let t = Bt.Runtime.create ~config ~mem () in
  (try
     ignore (Bt.Runtime.run t ~entry:program.G.Asm.base);
     Alcotest.fail "expected Runtime_error"
   with
  | Bt.Runtime.Runtime_error _ -> ()
  | Bt.Interp.Guest_fault _ -> ())

let test_fuel_exhaustion () =
  (* an infinite translated loop hits the fuel bound; the run stops
     gracefully with the reason surfaced in the stats, not an escaping
     exception *)
  let build asm =
    let open G.Asm in
    let top = fresh_label asm in
    jmp asm top;
    bind asm top;
    movi asm GI.EAX 1;
    jmp asm top
  in
  let program, mem = load_program build in
  let config =
    { (Bt.Runtime.default_config Bt.Mechanism.Direct) with fuel = 10_000 }
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
  Alcotest.(check bool) "stop reason is Fuel_exhausted" true
    (stats.Bt.Run_stats.stop = Bt.Run_stats.Fuel_exhausted);
  Alcotest.(check bool) "fuel_left never negative" true (t.Bt.Runtime.fuel_left >= 0)

let test_tiny_fuel_accounting () =
  (* regression for the fuel-accounting bug: a translated block whose
     executed-instruction count exceeds the remaining fuel used to drive
     [fuel_left] negative and let the run continue past its bound. With
     fuel far below one loop-body's host cost, the run must still stop,
     report Fuel_exhausted, and leave [fuel_left] clamped at >= 0. *)
  let build asm =
    let open G.Asm in
    let top = fresh_label asm in
    jmp asm top;
    bind asm top;
    movi asm GI.EAX 1;
    jmp asm top
  in
  let program, mem = load_program build in
  List.iter
    (fun fuel ->
      let config = { (Bt.Runtime.default_config Bt.Mechanism.Direct) with fuel } in
      let t = Bt.Runtime.create ~config ~mem () in
      let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
      Alcotest.(check bool)
        (Printf.sprintf "fuel=%d stops as Fuel_exhausted" fuel)
        true
        (stats.Bt.Run_stats.stop = Bt.Run_stats.Fuel_exhausted);
      Alcotest.(check bool)
        (Printf.sprintf "fuel=%d leaves fuel_left >= 0" fuel)
        true (t.Bt.Runtime.fuel_left >= 0))
    [ 1; 2; 7; 100 ]

let test_halt_stop_reason () =
  (* a program that halts normally reports Halted, not a bound *)
  let build asm =
    G.Asm.movi asm GI.EAX 1;
    G.Asm.halt asm
  in
  let program, mem = load_program build in
  let t = Bt.Runtime.create ~config:(Bt.Runtime.default_config Bt.Mechanism.Direct) ~mem () in
  let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
  Alcotest.(check bool) "stop reason is Halted" true
    (stats.Bt.Run_stats.stop = Bt.Run_stats.Halted)

let test_max_guest_insns_bound () =
  (* an infinite interpreted loop stops at the guest-instruction bound *)
  let build asm =
    let open G.Asm in
    let top = fresh_label asm in
    jmp asm top;
    bind asm top;
    movi asm GI.EAX 1;
    jmp asm top
  in
  let program, mem = load_program build in
  let config =
    { (Bt.Runtime.default_config (Bt.Mechanism.Dynamic_profiling { threshold = max_int }))
      with max_guest_insns = 5_000L
    }
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
  Alcotest.(check bool) "stopped near the bound" true
    (stats.Bt.Run_stats.guest_insns >= 5_000L
    && stats.Bt.Run_stats.guest_insns < 6_000L)

(* The pure-interpreter driver never translates, however hot a block
   runs: a loop past a million iterations (where a heating threshold
   of 1 000 000 would translate) stays interpreted to the last
   instruction, and the oracle built on it agrees with a translated
   run of the same loop. *)
let test_interpret_never_translates () =
  let image () =
    let asm = G.Asm.create () in
    let open G.Asm in
    movi asm GI.ECX 0;
    let top = fresh_label asm in
    bind asm top;
    addi asm GI.ECX 1;
    cmpi asm GI.ECX 1_100_000;
    jcc asm GI.Ne top;
    halt asm;
    let program = assemble ~base:Bt.Layout.guest_code_base asm in
    let mem = Machine.Memory.create ~size_bytes:Bt.Layout.mem_size in
    Machine.Memory.load_image mem ~addr:program.base program.image;
    (program.base, mem)
  in
  let entry, mem = image () in
  let t = Bt.Runtime.create ~mem () in
  let stats = Bt.Runtime.interpret t ~entry in
  Alcotest.(check int) "no translation" 0 stats.Bt.Run_stats.translations;
  Alcotest.(check int64) "every guest insn" 3_300_002L stats.Bt.Run_stats.guest_insns;
  Alcotest.(check int64) "all interpreted" stats.Bt.Run_stats.guest_insns
    stats.Bt.Run_stats.interp_insns;
  let entry, mem = image () in
  let config =
    Bt.Runtime.default_config (Bt.Mechanism.Exception_handling { rearrange = false })
  in
  let eh = Bt.Runtime.create ~config ~mem () in
  ignore (Bt.Runtime.run eh ~entry);
  Alcotest.(check bool) "oracle = eh final state" true
    (Mda_fault.Oracle.state_eq
       (Mda_fault.Oracle.interpret (image ()))
       (Mda_fault.Oracle.state eh.Bt.Runtime.cpu))

(* --- knobs ------------------------------------------------------------------ *)

let mech_eh = Bt.Mechanism.Exception_handling { rearrange = false }

(* Run to completion and return the runtime too, checking the code
   cache on the way: every fresh translation is validated against its
   guest block the moment it is emitted (via the [Ev_translate] hook),
   and on the way out the whole cache must pass both the DBT invariant
   checker and the translation validator. *)
let run_cfg_rt config build =
  let program, mem = load_program build in
  let block_of start =
    match Bt.Block.discover mem ~pc:start with Ok b -> Some b | Error _ -> None
  in
  let rt = ref None in
  let on_event = function
    | Bt.Runtime.Ev_translate { block = start; _ } -> (
      match (!rt, block_of start) with
      | Some t, Some block ->
        let r = Mda_analysis.Validator.check_block ~cache:t.Bt.Runtime.cache ~block in
        if not (Mda_analysis.Validator.ok r) then
          Alcotest.failf "validator (at translation of %#x): %s" start
            (Format.asprintf "%a" Mda_analysis.Validator.pp_report r)
      | _ -> ())
    | _ -> ()
  in
  let t = Bt.Runtime.create ~config:{ config with on_event = Some on_event } ~mem () in
  rt := Some t;
  let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
  let report = Mda_analysis.Check.run t.Bt.Runtime.cache in
  if not (Mda_analysis.Check.ok report) then
    Alcotest.failf "invariant checker: %s"
      (Format.asprintf "%a" Mda_analysis.Check.pp_report report);
  (* rearrangement and retranslation rebuild patched blocks with inline
     sequences, which legally removes the patched Br slots again *)
  if
    stats.Bt.Run_stats.patches > 0
    && stats.Bt.Run_stats.rearrangements = 0
    && stats.Bt.Run_stats.retranslations = 0
  then
    Alcotest.(check bool) "patched sites were checked" true
      (report.Mda_analysis.Check.patched_checked > 0);
  if stats.Bt.Run_stats.chains > 0 then
    Alcotest.(check bool) "chain edges were checked" true
      (report.Mda_analysis.Check.chains_checked > 0);
  let v = Mda_analysis.Validator.run ~cache:t.Bt.Runtime.cache ~block_of in
  if not (Mda_analysis.Validator.ok v) then
    Alcotest.failf "translation validator: %s"
      (Format.asprintf "%a" Mda_analysis.Validator.pp_report v);
  if stats.Bt.Run_stats.translations > 0 then
    Alcotest.(check bool) "validator checked blocks" true
      (v.Mda_analysis.Validator.blocks_checked > 0);
  (stats, mem, t)

let run_cfg config build =
  let stats, mem, _ = run_cfg_rt config build in
  (stats, mem)

let loop_build iters asm =
  counted_loop asm ~iters (fun asm ->
      G.Asm.movi asm GI.EBX (data + 2);
      G.Asm.load asm ~dst:GI.EAX ~src:(GI.addr_base GI.EBX) ~size:GI.S4 ();
      G.Asm.addi asm GI.EAX 1;
      G.Asm.store asm ~src:GI.EAX ~dst:(GI.addr_base GI.EBX) ~size:GI.S4 ());
  G.Asm.halt asm

let test_chaining_off_still_correct () =
  let on, mem_on = run_cfg (Bt.Runtime.default_config mech_eh) (loop_build 500) in
  let off, mem_off =
    run_cfg { (Bt.Runtime.default_config mech_eh) with chaining = false } (loop_build 500)
  in
  Alcotest.(check int64) "same result"
    (Machine.Memory.read mem_on ~addr:(data + 2) ~size:4)
    (Machine.Memory.read mem_off ~addr:(data + 2) ~size:4);
  Alcotest.(check int) "no chains when off" 0 off.Bt.Run_stats.chains;
  Alcotest.(check bool) "unchained is slower" true
    (off.Bt.Run_stats.cycles > on.Bt.Run_stats.cycles)

let test_full_flush_still_correct () =
  let mech = Bt.Mechanism.Dpeh { threshold = 0; retranslate = Some 2; multiversion = false } in
  let build asm =
    counted_loop asm ~iters:300 (fun asm ->
        for k = 0 to 3 do
          G.Asm.movi asm GI.EBX (data + 2 + (k * 16));
          G.Asm.rmw asm ~op:GI.Add ~dst:(GI.addr_base GI.EBX) ~src:(GI.Imm 1l)
            ~size:GI.S4 ()
        done);
    G.Asm.halt asm
  in
  let block, mem_b = run_cfg (Bt.Runtime.default_config mech) build in
  let full, mem_f =
    run_cfg
      { (Bt.Runtime.default_config mech) with flush_policy = Bt.Runtime.Full_flush }
      build
  in
  Alcotest.(check bool) "both retranslate" true
    (block.Bt.Run_stats.retranslations > 0 && full.Bt.Run_stats.retranslations > 0);
  for k = 0 to 3 do
    Alcotest.(check int64)
      (Printf.sprintf "cell %d equal" k)
      (Machine.Memory.read mem_b ~addr:(data + 2 + (k * 16)) ~size:4)
      (Machine.Memory.read mem_f ~addr:(data + 2 + (k * 16)) ~size:4)
  done

(* --- trap cost ---------------------------------------------------------------- *)

(* The trap-cost ablation re-prices default-cost runs instead of
   re-simulating them ([Ablation.cycles_at]). That is exact only while
   the trap cost is charged once per counted trap and nothing a run does
   depends on it: a run at another trap cost must match the default run
   in every statistic but [cycles], and its [cycles] must be the
   re-priced default. *)
let test_trap_cost_is_a_linear_term () =
  let module H = Mda_harness in
  let module W = Mda_workloads.Workload in
  let scale = Test_golden.golden_opts.H.Experiment.scale in
  let run ~align_trap spec bench =
    let mechanism = H.Cell.mechanism_of_spec ~scale ~input:Mda_workloads.Gen.Ref bench spec in
    let config =
      { (Bt.Runtime.default_config mechanism) with
        cost = { Machine.Cost_model.default with align_trap } }
    in
    let w = W.instantiate ~scale bench in
    Bt.Runtime.run (Bt.Runtime.create ~config ~mem:(W.fresh_memory w) ()) ~entry:(W.entry w)
  in
  let traps = ref 0L in
  List.iter
    (fun bench ->
      List.iter
        (fun spec ->
          let label = bench ^ " " ^ Mda_mech.Mech_spec.describe spec in
          let default = run ~align_trap:Machine.Cost_model.default.align_trap spec bench in
          traps := Int64.add !traps default.Bt.Run_stats.traps;
          List.iter
            (fun align_trap ->
              let s = run ~align_trap spec bench in
              Alcotest.(check bool)
                (Printf.sprintf "%s @%d: counts unchanged" label align_trap)
                true
                ({ s with cycles = default.cycles } = default);
              Alcotest.(check int64)
                (Printf.sprintf "%s @%d: cycles re-priced" label align_trap)
                (H.Ablation.cycles_at ~align_trap default)
                s.cycles)
            [ 250; 4000 ])
        H.Ablation.trap_mechs)
    Test_golden.golden_opts.benchmarks;
  Alcotest.(check bool) "the runs trap" true (!traps > 0L)

(* --- statistics sanity -------------------------------------------------------- *)

let test_cache_miss_stats_reported () =
  let stats, _ = run_cfg (Bt.Runtime.default_config mech_eh) (loop_build 200) in
  Alcotest.(check bool) "icache misses counted" true (stats.Bt.Run_stats.icache_misses > 0);
  Alcotest.(check bool) "dcache misses counted" true (stats.Bt.Run_stats.dcache_misses > 0)

let test_profile_survives_retranslation () =
  (* after retranslation, the block's accumulated MDA knowledge must
     yield an inline-seq translation: no further traps *)
  let mech = Bt.Mechanism.Dpeh { threshold = 0; retranslate = Some 2; multiversion = false } in
  let build asm =
    counted_loop asm ~iters:2000 (fun asm ->
        for k = 0 to 2 do
          G.Asm.movi asm GI.EBX (data + 2 + (k * 16));
          G.Asm.load asm ~dst:GI.EAX ~src:(GI.addr_base GI.EBX) ~size:GI.S4 ()
        done);
    G.Asm.halt asm
  in
  let stats, _ = run_cfg (Bt.Runtime.default_config mech) build in
  Alcotest.(check bool) "retranslated" true (stats.Bt.Run_stats.retranslations > 0);
  (* the three sites trap at most a handful of times in total: once each
     before retranslation, maybe once more in the transition *)
  Alcotest.(check bool) "traps bounded" true (stats.Bt.Run_stats.traps <= 6L)

(* --- DBT invariant checker ---------------------------------------------------- *)

(* A hand-built program as a preparation subject; it has one input, so
   the train image is the run image. *)
let subject build =
  let load () =
    let program, mem = load_program build in
    (program.G.Asm.base, mem)
  in
  { Mda_mech.Mech_spec.name = "hand-built"; image = load; train = load }

(* Every mechanism family: static profiling ships an empty summary (so
   every MDA is OS-fixed up), and both SA modes analyze [build] first. *)
let mechanism_zoo build =
  let sa unknown =
    (Mda_mech.Mech_spec.prepare (subject build)
       (Mda_mech.Mech_spec.Static_analysis { unknown })).Mda_mech.Mech_spec.mechanism
  in
  [ Bt.Mechanism.Direct;
    Bt.Mechanism.Exception_handling { rearrange = false };
    Bt.Mechanism.Exception_handling { rearrange = true };
    Bt.Mechanism.Dynamic_profiling { threshold = 50 };
    Bt.Mechanism.Static_profiling (Bt.Profile.empty_summary ());
    Bt.Mechanism.Dpeh { threshold = 0; retranslate = Some 2; multiversion = true };
    sa Bt.Mechanism.Sa_fallback;
    sa Bt.Mechanism.Sa_seq ]

(* Every mechanism family finishes a patching-heavy run with the
   invariant checker green (run_cfg_rt asserts it); the SA mechanisms
   analyze the same program first. *)
let test_selfcheck_every_mechanism () =
  let build = loop_build 300 in
  List.iter
    (fun mech ->
      let stats, _, _ = run_cfg_rt (Bt.Runtime.default_config mech) build in
      Alcotest.(check bool)
        (Bt.Mechanism.name mech ^ " ran")
        true
        (stats.Bt.Run_stats.guest_insns > 0L))
    (mechanism_zoo build)

(* Seeded negative test: corrupt the patch bookkeeping of a finished EH
   run and demand the checker notices both corruptions. *)
let test_selfcheck_detects_corruption () =
  let program, mem = load_program (loop_build 300) in
  let config = Bt.Runtime.default_config mech_eh in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
  Alcotest.(check bool) "run patched something" true (stats.Bt.Run_stats.patches > 0);
  let cache = t.Bt.Runtime.cache in
  Alcotest.(check bool) "clean cache passes" true
    (Mda_analysis.Check.ok (Mda_analysis.Check.run cache));
  (* corruption 1: erase the patch records of every block — patched
     branches are no longer accounted for *)
  let saved = Hashtbl.create 8 in
  Bt.Code_cache.iter_blocks cache (fun brec ->
      Hashtbl.replace saved brec.Bt.Code_cache.start (Hashtbl.copy brec.patched);
      Hashtbl.reset brec.patched);
  let r1 = Mda_analysis.Check.run cache in
  Alcotest.(check bool) "erased patch map detected" false (Mda_analysis.Check.ok r1);
  Bt.Code_cache.iter_blocks cache (fun brec ->
      match Hashtbl.find_opt saved brec.Bt.Code_cache.start with
      | Some tbl -> Hashtbl.iter (fun k () -> Hashtbl.replace brec.patched k ()) tbl
      | None -> ());
  Alcotest.(check bool) "restored cache passes" true
    (Mda_analysis.Check.ok (Mda_analysis.Check.run cache));
  (* corruption 2: retarget one patched branch at the code store origin,
     where no MDA sequence lives *)
  let patched_pc =
    Hashtbl.fold
      (fun pc (_ : Bt.Code_cache.site) acc ->
        match (acc, Bt.Code_cache.insn_at cache pc) with
        | None, Some (Mda_host.Isa.Br _) -> Some pc
        | acc, _ -> acc)
      cache.Bt.Code_cache.sites None
  in
  match patched_pc with
  | None -> Alcotest.fail "no patched site found"
  | Some pc ->
    Bt.Code_cache.patch cache pc (Mda_host.Isa.Br { ra = Mda_host.Isa.r31; target = 0 });
    let r2 = Mda_analysis.Check.run cache in
    Alcotest.(check bool) "dangling patch branch detected" false (Mda_analysis.Check.ok r2)

let suite =
  [ ( "runtime.selfcheck",
      [ Alcotest.test_case "every mechanism checks green" `Quick
          test_selfcheck_every_mechanism;
        Alcotest.test_case "corruption is detected" `Quick
          test_selfcheck_detects_corruption ] );
    ( "runtime.edges",
      [ Alcotest.test_case "jump into garbage" `Quick test_jump_into_garbage;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "tiny-fuel accounting" `Quick test_tiny_fuel_accounting;
        Alcotest.test_case "halt stop reason" `Quick test_halt_stop_reason;
        Alcotest.test_case "guest-instruction bound" `Quick test_max_guest_insns_bound;
        Alcotest.test_case "interpret never translates" `Quick test_interpret_never_translates;
        Alcotest.test_case "chaining off is correct" `Quick test_chaining_off_still_correct;
        Alcotest.test_case "full flush is correct" `Quick test_full_flush_still_correct;
        Alcotest.test_case "cache-miss stats" `Quick test_cache_miss_stats_reported;
        Alcotest.test_case "trap cost is a linear term" `Quick test_trap_cost_is_a_linear_term;
        Alcotest.test_case "profile survives retranslation" `Quick
          test_profile_survives_retranslation ] ) ]
