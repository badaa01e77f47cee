(* Tests for the translation validator: every cache produced by every
   mechanism must validate clean, and seeded semantic mutations of the
   cached host code must be caught. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module Bt = Mda_bt
module V = Mda_analysis.Validator

let data = Bt.Layout.data_base

(* Validate every live block of a finished runtime's cache, re-decoding
   guest blocks from the same memory image. *)
let validate_runtime (t : Bt.Runtime.t) =
  V.run ~cache:t.Bt.Runtime.cache ~block_of:(Bt.Runtime.guest_block t)

let assert_clean what t =
  let r = validate_runtime t in
  if not (V.ok r) then
    Alcotest.failf "%s: %s" what (Format.asprintf "%a" V.pp_report r);
  r

let run_build mech build =
  let stats, _, t = Test_bt.run_mechanism mech build in
  (stats, t)

(* A counted loop whose tail compares against 1, so no emitted host
   instruction has an all-zero second operand (a zero there makes the
   subq/addq mutant pair semantically equal, i.e. unkillable). *)
let loop1 asm ~iters body =
  let open G.Asm in
  movi asm GI.ECX iters;
  let top = fresh_label asm in
  jmp asm top;
  bind asm top;
  body asm;
  addi asm GI.ECX (-1);
  cmpi asm GI.ECX 1;
  jcc asm GI.Ge top

(* A build exercising every translation shape — aligned and misaligned
   loads/stores of each width, RMW, push/pop, scaled-index addressing,
   the binop sampler, and both branch polarities — with every base
   register set *before* its loop. Inside a loop body block the bases
   are then symbolic block inputs, so the validator covers all eight
   address residues, which is what gives the mutation harness teeth
   (constant addresses leave the quad-crossing code provably dead and
   its mutants semantically neutral). Loops are kept separate so each
   block splits on at most two address roots. *)
let rich_build asm =
  let open G.Asm in
  movi asm GI.EBX (data + 2);
  movi asm GI.ESI data;
  movi asm GI.EDX 2;
  movi asm GI.EBP (data + 33);
  (* loop A: misaligned S4 traffic + stack + shifts (roots: EBX, ESP) *)
  loop1 asm ~iters:300 (fun asm ->
      load asm ~dst:GI.EAX ~src:(GI.addr_base GI.EBX) ~size:GI.S4 ();
      addi asm GI.EAX 3;
      store asm ~src:GI.EAX ~dst:(GI.addr_base GI.EBX) ~size:GI.S4 ();
      insn asm (GI.Push GI.EAX);
      insn asm (GI.Pop GI.EDI);
      insn asm (GI.Binop { op = GI.Shl; dst = GI.EDI; src = GI.Imm 3l });
      insn asm (GI.Binop { op = GI.Sar; dst = GI.EDI; src = GI.Imm 2l });
      insn asm (GI.Binop { op = GI.Xor; dst = GI.EDI; src = GI.Reg GI.EAX }));
  (* loop B: aligned S8 scaled-index + lea/imul (root: ESI+EDX*8) *)
  loop1 asm ~iters:300 (fun asm ->
      load asm ~dst:GI.EAX
        ~src:(GI.addr_indexed ~disp:16 ~base:GI.ESI ~index:GI.EDX ~scale:8 ())
        ~size:GI.S8 ();
      store asm ~src:GI.EAX
        ~dst:(GI.addr_indexed ~disp:24 ~base:GI.ESI ~index:GI.EDX ~scale:8 ())
        ~size:GI.S8 ();
      insn asm (GI.Lea { dst = GI.EDI; src = GI.addr_indexed ~disp:7 ~base:GI.ESI ~index:GI.EDX ~scale:4 () });
      insn asm (GI.Binop { op = GI.Imul; dst = GI.EDI; src = GI.Reg GI.EDX }));
  (* loop C: misaligned signed S2 + misaligned RMW (root: EBP) *)
  loop1 asm ~iters:300 (fun asm ->
      load asm ~dst:GI.EDI ~src:(GI.addr_base GI.EBP) ~size:GI.S2 ~signed:true ();
      store asm ~src:GI.EDI ~dst:(GI.addr_base GI.EBP) ~size:GI.S2 ();
      rmw asm ~op:GI.Add ~dst:(GI.addr_base ~disp:29 GI.EBP) ~src:(GI.Imm 5l)
        ~size:GI.S4 ());
  (* loop D: unsigned-compare branch over a store (root: ESI) *)
  loop1 asm ~iters:300 (fun asm ->
      load asm ~dst:GI.EAX ~src:(GI.addr_base ~disp:80 GI.ESI) ~size:GI.S4 ();
      cmpi asm GI.EAX 100;
      let skip = fresh_label asm in
      jcc asm GI.Ult skip;
      store asm ~src:GI.ECX ~dst:(GI.addr_base ~disp:44 GI.ESI) ~size:GI.S4 ();
      bind asm skip);
  (* a Test whose flags are live at the block exit (so its host code is
     not dead and its mutants are killable) *)
  insn asm (GI.Test { a = GI.EAX; b = GI.Imm 6l });
  G.Asm.halt asm

let test_zoo_validates_clean () =
  List.iter
    (fun mech ->
      let stats, t = run_build mech rich_build in
      Alcotest.(check bool) (Bt.Mechanism.name mech ^ " ran") true
        (stats.Bt.Run_stats.guest_insns > 0L);
      let r = assert_clean (Bt.Mechanism.name mech) t in
      Alcotest.(check bool)
        (Bt.Mechanism.name mech ^ " checked blocks")
        true (r.V.blocks_checked > 0))
    (Test_runtime.mechanism_zoo rich_build)

(* --- mutation harness: the validator must have teeth ------------------- *)

let test_mutation_kill_ratio () =
  (* one patching mechanism (out-of-line sequences live in the cache)
     and one inline-seq mechanism; every surviving mutant is printed,
     and the sweep must kill at least 95% *)
  List.iter
    (fun mech ->
      let _, t = run_build mech rich_build in
      ignore (assert_clean (Bt.Mechanism.name mech) t);
      let o =
        Mda_analysis.Mutate.run ~cache:t.Bt.Runtime.cache
          ~block_of:(Bt.Runtime.guest_block t) ~max_mutants:300 ()
      in
      Format.printf "%s %a@." (Bt.Mechanism.name mech) Mda_analysis.Mutate.pp_outcome o;
      Alcotest.(check bool) (Bt.Mechanism.name mech ^ " mutated something") true (o.total > 100);
      if Mda_analysis.Mutate.kill_ratio o < 0.95 then
        Alcotest.failf "%s: kill ratio %.1f%% below 95%%:@\n%s" (Bt.Mechanism.name mech)
          (100.0 *. Mda_analysis.Mutate.kill_ratio o)
          (Format.asprintf "%a" Mda_analysis.Mutate.pp_outcome o))
    [ Bt.Mechanism.Exception_handling { rearrange = false }; Bt.Mechanism.Direct ]

(* The same sweep with the committed peephole tier installed: rewritten
   caches must stay exactly as auditable as canonical ones — the
   validator still validates them clean and still kills >= 95% of
   semantic mutants of the (shorter) host code. *)
let test_mutation_kill_ratio_with_rules () =
  let rules =
    match Mda_host.Peephole.load Test_util.committed_rules with
    | Ok rs -> Mda_host.Peephole.activate rs
    | Error e -> Alcotest.failf "cannot load committed rules: %s" e
  in
  List.iter
    (fun mech ->
      let program, mem = Test_runtime.load_program rich_build in
      let config =
        { (Bt.Runtime.default_config mech) with rules = Some rules }
      in
      let t = Bt.Runtime.create ~config ~mem () in
      let _ = Bt.Runtime.run t ~entry:program.G.Asm.base in
      ignore (assert_clean (Bt.Mechanism.name mech ^ "+rules") t);
      let o =
        Mda_analysis.Mutate.run ~cache:t.Bt.Runtime.cache
          ~block_of:(Bt.Runtime.guest_block t) ~max_mutants:300 ()
      in
      Alcotest.(check bool)
        (Bt.Mechanism.name mech ^ "+rules mutated something")
        true (o.total > 100);
      if Mda_analysis.Mutate.kill_ratio o < 0.95 then
        Alcotest.failf "%s+rules: kill ratio %.1f%% below 95%%:@\n%s"
          (Bt.Mechanism.name mech)
          (100.0 *. Mda_analysis.Mutate.kill_ratio o)
          (Format.asprintf "%a" Mda_analysis.Mutate.pp_outcome o))
    [ Bt.Mechanism.Exception_handling { rearrange = false }; Bt.Mechanism.Direct ]

(* --- soundness over the differential suite's random workloads ---------- *)

(* Piggyback on test_differential's seeded workload generator: every
   cache produced by every mechanism on a generated workload must
   validate clean. This is the completeness half of the
   mutation-harness coin — the validator accepts all correct
   translations, and (above) rejects corrupted ones. *)
let validator_differential_test (label, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "workload cache validates clean: %s" label)
    ~count:10
    (QCheck.make Test_differential.gen_spec ~print:Test_differential.print_spec)
    (fun groups ->
      QCheck.assume (Test_differential.buildable groups);
      let _, t = Test_differential.run_rt spec groups in
      let r = validate_runtime t in
      if not (V.ok r) then
        QCheck.Test.fail_reportf "%s: %a" label V.pp_report r
      else true)

let differential_cases =
  List.map
    (fun m ->
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0x5eed_2026 |])
        (validator_differential_test m))
    Test_differential.mechanisms

let suite =
  [ ( "validator.clean",
      [ Alcotest.test_case "mechanism zoo validates clean" `Quick
          test_zoo_validates_clean ] );
    ("validator.workloads", differential_cases);
    ( "validator.mutation",
      [ Alcotest.test_case "seeded mutants are killed" `Slow test_mutation_kill_ratio;
        Alcotest.test_case "mutants killed with peephole tier" `Slow
          test_mutation_kill_ratio_with_rules ] ) ]
