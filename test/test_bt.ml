(* Integration tests of the DBT pipeline: interpreter vs. translated code
   equivalence, trap/patch accounting per mechanism, retranslation and
   multi-version behaviour. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module Machine = Mda_machine
module Bt = Mda_bt
module Spec = Mda_mech.Mech_spec

let data = Bt.Layout.data_base

let load_program = Test_runtime.load_program

let run_mechanism mechanism build =
  let program, mem = load_program build in
  let config = Bt.Runtime.default_config mechanism in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:program.G.Asm.base in
  (stats, mem, t)

let run_interp build =
  let program, mem = load_program build in
  let stats, profile = Bt.Runtime.interpret_program ~mem ~entry:program.G.Asm.base () in
  (stats, mem, profile)

let counted_loop = Test_runtime.counted_loop

(* Loop body: load a 4-byte value at [addr], add 1, store it back. *)
let incr_cell asm ~addr =
  let open G.Asm in
  movi asm GI.EBX addr;
  load asm ~dst:GI.EAX ~src:(GI.addr_base GI.EBX) ~size:GI.S4 ();
  addi asm GI.EAX 1;
  store asm ~src:GI.EAX ~dst:(GI.addr_base GI.EBX) ~size:GI.S4 ()

let all_mechanisms () =
  [ Bt.Mechanism.Direct;
    Bt.Mechanism.Static_profiling (Bt.Profile.empty_summary ());
    Bt.Mechanism.Dynamic_profiling { threshold = 5 };
    Bt.Mechanism.Exception_handling { rearrange = false };
    Bt.Mechanism.Exception_handling { rearrange = true };
    Bt.Mechanism.Dpeh { threshold = 5; retranslate = None; multiversion = false };
    Bt.Mechanism.Dpeh { threshold = 5; retranslate = Some 4; multiversion = true } ]

(* --- equivalence: every mechanism computes the same final state ------- *)

let check_equivalence ?(cells = []) build =
  let _, mem_ref, _ = run_interp build in
  let read m addr = Machine.Memory.read m ~addr ~size:4 in
  List.iter
    (fun mech ->
      let _, mem, _ = run_mechanism mech build in
      List.iter
        (fun addr ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: cell %#x" (Bt.Mechanism.name mech) addr)
            (read mem_ref addr) (read mem addr))
        cells)
    (all_mechanisms ())

let test_aligned_loop_equivalence () =
  check_equivalence ~cells:[ data ] (fun asm ->
      counted_loop asm ~iters:100 (incr_cell ~addr:data);
      G.Asm.halt asm)

let test_misaligned_loop_equivalence () =
  (* data+2 is 2 mod 4: every 4-byte access misaligns *)
  check_equivalence ~cells:[ Mda_util.Bits.to_int32_signed (Int64.of_int (data + 2)) |> fun _ -> data ]
    (fun asm ->
      counted_loop asm ~iters:100 (incr_cell ~addr:(data + 2));
      G.Asm.halt asm);
  (* also check the misaligned cell itself *)
  let build asm =
    counted_loop asm ~iters:100 (incr_cell ~addr:(data + 2));
    G.Asm.halt asm
  in
  let _, mem_ref, _ = run_interp build in
  List.iter
    (fun mech ->
      let _, mem, _ = run_mechanism mech build in
      Alcotest.(check int64)
        (Bt.Mechanism.name mech ^ ": misaligned cell")
        (Machine.Memory.read mem_ref ~addr:(data + 2) ~size:4)
        (Machine.Memory.read mem ~addr:(data + 2) ~size:4))
    (all_mechanisms ())

(* --- ground truth MDA counting ---------------------------------------- *)

let test_interp_counts_mdas () =
  let build asm =
    counted_loop asm ~iters:50 (incr_cell ~addr:(data + 2));
    G.Asm.halt asm
  in
  let stats, _, profile = run_interp build in
  (* one load + one store per iteration, both misaligned *)
  Alcotest.(check int64) "mdas" 100L stats.Bt.Run_stats.mdas;
  Alcotest.(check int) "NMI = 2 static insns" 2 (Bt.Profile.nmi profile)

let test_interp_aligned_no_mdas () =
  let build asm =
    counted_loop asm ~iters:50 (incr_cell ~addr:data);
    G.Asm.halt asm
  in
  let stats, _, _ = run_interp build in
  Alcotest.(check int64) "no mdas" 0L stats.Bt.Run_stats.mdas;
  Alcotest.(check bool) "memrefs counted" true (stats.Bt.Run_stats.memrefs > 0L)

(* --- mechanism-specific accounting ------------------------------------ *)

let misaligned_build iters asm =
  counted_loop asm ~iters (incr_cell ~addr:(data + 2));
  G.Asm.halt asm

let test_direct_never_traps () =
  let stats, _, _ = run_mechanism Bt.Mechanism.Direct (misaligned_build 200) in
  Alcotest.(check int64) "no traps under direct" 0L stats.Bt.Run_stats.traps

let test_eh_traps_once_per_site () =
  let stats, _, _ =
    run_mechanism (Bt.Mechanism.Exception_handling { rearrange = false })
      (misaligned_build 200)
  in
  (* the load and the store each trap exactly once, then run patched *)
  Alcotest.(check int64) "two traps" 2L stats.Bt.Run_stats.traps;
  Alcotest.(check bool) "patches recorded" true (stats.Bt.Run_stats.patches >= 2)

let test_dynamic_profiling_catches_hot_mda () =
  let stats, _, _ =
    run_mechanism (Bt.Mechanism.Dynamic_profiling { threshold = 5 })
      (misaligned_build 200)
  in
  (* MDA sites observed during the 5 profiled executions are translated
     as MDA sequences: no traps at all *)
  Alcotest.(check int64) "no traps" 0L stats.Bt.Run_stats.traps

let test_static_profiling_traps_forever_without_profile () =
  let stats, _, _ =
    run_mechanism
      (Bt.Mechanism.Static_profiling (Bt.Profile.empty_summary ()))
      (misaligned_build 200)
  in
  (* empty train profile: every translated-mode MDA goes to the OS
     handler: 2 accesses * 200 iterations *)
  (* first 50 iterations run interpreted (heating phase): 150 iterations
     of 2 accesses each trap *)
  Alcotest.(check int64) "300 traps" 300L stats.Bt.Run_stats.traps

let test_static_profiling_with_train_profile () =
  (* train run = same program; its profile should silence all traps *)
  let subject = Test_runtime.subject (misaligned_build 200) in
  let train = (Test_runtime.subject (misaligned_build 50)).Spec.image in
  let p = Spec.prepare { subject with Spec.train } Spec.Static_profiling in
  let stats, _, _ = run_mechanism p.Spec.mechanism (misaligned_build 200) in
  Alcotest.(check int64) "no traps with train profile" 0L stats.Bt.Run_stats.traps

let test_eh_cheaper_than_static_without_profile () =
  let eh, _, _ =
    run_mechanism (Bt.Mechanism.Exception_handling { rearrange = false })
      (misaligned_build 2000)
  in
  let st, _, _ =
    run_mechanism
      (Bt.Mechanism.Static_profiling (Bt.Profile.empty_summary ()))
      (misaligned_build 2000)
  in
  Alcotest.(check bool) "EH beats trap-per-MDA" true
    (eh.Bt.Run_stats.cycles < st.Bt.Run_stats.cycles)

let test_direct_overhead_on_aligned_code () =
  let build asm =
    counted_loop asm ~iters:2000 (incr_cell ~addr:data);
    G.Asm.halt asm
  in
  let direct, _, _ = run_mechanism Bt.Mechanism.Direct build in
  let eh, _, _ =
    run_mechanism (Bt.Mechanism.Exception_handling { rearrange = false }) build
  in
  (* with no MDAs, the direct method's sequences are pure overhead *)
  Alcotest.(check bool) "direct slower on aligned code" true
    (direct.Bt.Run_stats.cycles > eh.Bt.Run_stats.cycles)

let test_chaining_happens () =
  let stats, _, _ =
    run_mechanism (Bt.Mechanism.Exception_handling { rearrange = false })
      (misaligned_build 100)
  in
  Alcotest.(check bool) "exits get chained" true (stats.Bt.Run_stats.chains > 0)

let test_retranslation_triggers () =
  (* 8 distinct always-misaligned sites in one block trip the
     retranslate-after-4-traps policy *)
  let build asm =
    let open G.Asm in
    counted_loop asm ~iters:50 (fun asm ->
        movi asm GI.EBX (data + 2);
        for k = 0 to 7 do
          load asm ~dst:GI.EAX ~src:(GI.addr_base ~disp:(k * 16) GI.EBX) ~size:GI.S4 ();
          addi asm GI.EAX 1;
          store asm ~src:GI.EAX ~dst:(GI.addr_base ~disp:(k * 16) GI.EBX) ~size:GI.S4 ()
        done);
    halt asm
  in
  let stats, _, _ =
    run_mechanism
      (Bt.Mechanism.Dpeh { threshold = 0; retranslate = Some 4; multiversion = false })
      build
  in
  Alcotest.(check bool) "retranslations happened" true
    (stats.Bt.Run_stats.retranslations > 0)

let test_rearrangement_triggers () =
  let stats, _, _ =
    run_mechanism (Bt.Mechanism.Exception_handling { rearrange = true })
      (misaligned_build 100)
  in
  Alcotest.(check bool) "rearrangements happened" true
    (stats.Bt.Run_stats.rearrangements > 0)

let test_multiversion_no_traps_on_mixed () =
  (* one static load alternating aligned/misaligned addresses *)
  let build asm =
    let open G.Asm in
    movi asm GI.EBX data;
    movi asm GI.EDX 0;
    counted_loop asm ~iters:400 (fun asm ->
        (* EDX alternates 0 / 2: address alternates aligned / misaligned *)
        load asm ~dst:GI.EAX
          ~src:(GI.addr_indexed ~base:GI.EBX ~index:GI.EDX ~scale:1 ())
          ~size:GI.S4 ();
        binop asm GI.Xor GI.EDX (GI.Imm 2l));
    halt asm
  in
  let mv, _, _ =
    run_mechanism
      (Bt.Mechanism.Dpeh { threshold = 20; retranslate = None; multiversion = true })
      build
  in
  Alcotest.(check int64) "multiversion: no traps" 0L mv.Bt.Run_stats.traps

(* --- read-modify-write instructions ----------------------------------- *)

let test_rmw_equivalence () =
  (* misaligned RMW: load half + store half both trap and get patched *)
  let build asm =
    let open G.Asm in
    counted_loop asm ~iters:100 (fun asm ->
        rmw asm ~op:GI.Add ~dst:(GI.addr_abs (data + 2)) ~src:(GI.Imm 3l) ~size:GI.S4 ());
    halt asm
  in
  let _, mem_ref, _ = run_interp build in
  let expected = Machine.Memory.read mem_ref ~addr:(data + 2) ~size:4 in
  Alcotest.(check int64) "interp result" 300L expected;
  List.iter
    (fun mech ->
      let _, mem, _ = run_mechanism mech build in
      Alcotest.(check int64)
        (Bt.Mechanism.name mech ^ ": rmw cell")
        expected
        (Machine.Memory.read mem ~addr:(data + 2) ~size:4))
    (all_mechanisms ())

let test_rmw_two_patch_sites () =
  let build asm =
    let open G.Asm in
    counted_loop asm ~iters:100 (fun asm ->
        rmw asm ~op:GI.Xor ~dst:(GI.addr_abs (data + 2)) ~src:(GI.Reg GI.EDX) ~size:GI.S4 ());
    halt asm
  in
  let stats, _, _ =
    run_mechanism (Bt.Mechanism.Exception_handling { rearrange = false }) build
  in
  (* the load half and the store half trap and are patched separately *)
  Alcotest.(check int64) "two traps" 2L stats.Bt.Run_stats.traps;
  Alcotest.(check bool) "two patches" true (stats.Bt.Run_stats.patches >= 2)

(* --- event tracing ------------------------------------------------------- *)

let test_event_trace () =
  let build asm =
    counted_loop asm ~iters:100 (incr_cell ~addr:(data + 2));
    G.Asm.halt asm
  in
  let program, mem = load_program build in
  let events = ref [] in
  let config =
    { (Bt.Runtime.default_config (Bt.Mechanism.Exception_handling { rearrange = false }))
      with on_event = Some (fun ev -> events := ev :: !events)
    }
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let _ = Bt.Runtime.run t ~entry:program.G.Asm.base in
  let count pred = List.length (List.filter pred !events) in
  Alcotest.(check bool) "translations traced" true
    (count (function Bt.Runtime.Ev_translate _ -> true | _ -> false) > 0);
  Alcotest.(check int) "two traps traced" 2
    (count (function Bt.Runtime.Ev_trap _ -> true | _ -> false));
  Alcotest.(check int) "two patches traced" 2
    (count (function Bt.Runtime.Ev_patch _ -> true | _ -> false));
  (* every event renders *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) "event prints" true
        (String.length (Format.asprintf "%a" Bt.Runtime.pp_event ev) > 0))
    !events

(* --- call/ret across blocks ------------------------------------------ *)

let test_call_ret () =
  let build asm =
    let open G.Asm in
    let fn = fresh_label asm in
    let done_ = fresh_label asm in
    movi asm GI.EDI 0;
    counted_loop asm ~iters:30 (fun asm -> call asm fn);
    jmp asm done_;
    bind asm fn;
    addi asm GI.EDI 7;
    ret asm;
    bind asm done_;
    movi asm GI.EBX data;
    store asm ~src:GI.EDI ~dst:(GI.addr_base GI.EBX) ~size:GI.S4 ();
    halt asm
  in
  let _, mem_ref, _ = run_interp build in
  let expected = Machine.Memory.read mem_ref ~addr:data ~size:4 in
  Alcotest.(check int64) "interp result" 210L expected;
  List.iter
    (fun mech ->
      let _, mem, _ = run_mechanism mech build in
      Alcotest.(check int64)
        (Bt.Mechanism.name mech ^ ": call/ret")
        expected
        (Machine.Memory.read mem ~addr:data ~size:4))
    (all_mechanisms ())

let suite =
  [ ( "bt.integration",
      [ Alcotest.test_case "aligned loop equivalence" `Quick test_aligned_loop_equivalence;
        Alcotest.test_case "misaligned loop equivalence" `Quick
          test_misaligned_loop_equivalence;
        Alcotest.test_case "interp counts MDAs" `Quick test_interp_counts_mdas;
        Alcotest.test_case "aligned code has no MDAs" `Quick test_interp_aligned_no_mdas;
        Alcotest.test_case "direct never traps" `Quick test_direct_never_traps;
        Alcotest.test_case "EH traps once per site" `Quick test_eh_traps_once_per_site;
        Alcotest.test_case "dynamic profiling catches hot MDA" `Quick
          test_dynamic_profiling_catches_hot_mda;
        Alcotest.test_case "static w/o profile traps forever" `Quick
          test_static_profiling_traps_forever_without_profile;
        Alcotest.test_case "static with train profile" `Quick
          test_static_profiling_with_train_profile;
        Alcotest.test_case "EH cheaper than trap-per-MDA" `Quick
          test_eh_cheaper_than_static_without_profile;
        Alcotest.test_case "direct overhead on aligned code" `Quick
          test_direct_overhead_on_aligned_code;
        Alcotest.test_case "block chaining" `Quick test_chaining_happens;
        Alcotest.test_case "retranslation triggers" `Quick test_retranslation_triggers;
        Alcotest.test_case "rearrangement triggers" `Quick test_rearrangement_triggers;
        Alcotest.test_case "multiversion handles mixed alignment" `Quick
          test_multiversion_no_traps_on_mixed;
        Alcotest.test_case "rmw equivalence" `Quick test_rmw_equivalence;
        Alcotest.test_case "rmw patches both halves" `Quick test_rmw_two_patch_sites;
        Alcotest.test_case "event tracing" `Quick test_event_trace;
        Alcotest.test_case "call/ret" `Quick test_call_ret ] ) ]
