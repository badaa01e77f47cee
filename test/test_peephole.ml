(* The validator-verified peephole tier: rule-file roundtrip, the
   rewrite engine and its hit counters, the context-free equivalence
   prover behind every rule, the miner at a fixed seed, and the
   committed rule file's proof obligations. *)

module H = Mda_host.Isa
module P = Mda_host.Peephole
module A = Mda_analysis
module V = Mda_analysis.Validator
module Bt = Mda_bt
module W = Mda_workloads

(* The flagship mined shape: the Seq_always signed-longword load tail
   [extll; extlh; bis; addl r31] collapsed to [extll; extlh; addl]. The
   merge's operands are byte-disjoint, so the add cannot carry and *is*
   the OR — fused with the sign-extension the trailing addl performed. *)
let lo = 13

let hi = 21

let off = 22

let flagship_pattern =
  [ H.Bytem { op = H.Ext; width = 4; high = false; ra = lo; rb = H.Rb off; rc = lo };
    H.Bytem { op = H.Ext; width = 4; high = true; ra = hi; rb = H.Rb off; rc = hi };
    H.Opr { op = H.Bis; ra = hi; rb = H.Rb lo; rc = lo };
    H.Opr { op = H.Addl; ra = H.r31; rb = H.Rb lo; rc = lo } ]

let flagship_replacement =
  [ H.Bytem { op = H.Ext; width = 4; high = false; ra = lo; rb = H.Rb off; rc = lo };
    H.Bytem { op = H.Ext; width = 4; high = true; ra = hi; rb = H.Rb off; rc = hi };
    H.Opr { op = H.Addl; ra = lo; rb = H.Rb hi; rc = lo } ]

let flagship =
  { P.id = "t-flagship";
    idiom = "signed longword load tail";
    pattern = flagship_pattern;
    replacement = flagship_replacement;
    saves = 1;
    proof = "all 32 registers and memory, every residue" }

let copy_mask =
  (* bis r1, zero, r6; and r6, #3, r6  ==>  and r1, #3, r6 *)
  { P.id = "t-copymask";
    idiom = "copy-then-mask";
    pattern =
      [ H.Opr { op = H.Bis; ra = 1; rb = H.Rb H.r31; rc = 6 };
        H.Opr { op = H.And; ra = 6; rb = H.Lit 3; rc = 6 } ];
    replacement = [ H.Opr { op = H.And; ra = 1; rb = H.Lit 3; rc = 6 } ];
    saves = 1;
    proof = "all 32 registers and memory" }

(* --- rule file: print/parse roundtrip, errors --------------------------- *)

let test_roundtrip () =
  let rules = [ flagship; copy_mask ] in
  match P.parse (P.print rules) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok rules' ->
    Alcotest.(check bool) "roundtrip identical" true (rules = rules');
    Alcotest.(check string) "digest stable" (P.digest rules) (P.digest rules')

let test_parse_errors () =
  let expect_error label text =
    match P.parse text with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" label
    | Error _ -> ()
  in
  expect_error "missing end" "rule a\nidiom: x\nmatch:\n  nop\nrewrite:\nsaves: 1\nproof: p\n";
  expect_error "duplicate id" (P.print [ flagship ] ^ P.print [ flagship ]);
  expect_error "bad instruction" "rule a\nidiom: x\nmatch:\n  frobnicate r1\nrewrite:\nsaves: 1\nproof: p\nend\n";
  expect_error "junk outside rule" "saves: 3\n"

let test_rule_error () =
  Alcotest.(check (option string)) "well-formed" None (P.rule_error flagship);
  let not_shorter = { flagship with P.replacement = flagship.P.pattern } in
  Alcotest.(check bool) "not shorter rejected" true (P.rule_error not_shorter <> None);
  let empty = { flagship with P.pattern = [] } in
  Alcotest.(check bool) "empty pattern rejected" true (P.rule_error empty <> None);
  let impure =
    { flagship with
      P.pattern = [ H.Ldl { ra = 1; rb = 2; disp = 0 }; H.Nop ];
      replacement = [ H.Nop ] }
  in
  Alcotest.(check bool) "memory op rejected" true (P.rule_error impure <> None)

(* --- the rewrite engine ------------------------------------------------- *)

let test_rewrite () =
  let active = P.activate [ flagship; copy_mask ] in
  let prefix = [ H.Lda { ra = 3; rb = H.r31; disp = 7 } ] in
  let out = P.rewrite active (prefix @ flagship_pattern) in
  Alcotest.(check bool) "flagship rewritten" true (out = prefix @ flagship_replacement);
  Alcotest.(check int) "one hit" 1 (P.total_hits active);
  Alcotest.(check int) "one cycle saved" 1 (P.total_saved active);
  (* two disjoint applications in one run *)
  let out2 = P.rewrite active (flagship_pattern @ copy_mask.P.pattern) in
  Alcotest.(check bool) "both rewritten" true
    (out2 = flagship_replacement @ copy_mask.P.replacement);
  Alcotest.(check int) "three hits total" 3 (P.total_hits active);
  (* replacements are never re-matched *)
  let out3 = P.rewrite active flagship_replacement in
  Alcotest.(check bool) "replacement is a fixpoint" true (out3 = flagship_replacement)

let test_rewrite_preserves_unmatched () =
  let active = P.activate [ copy_mask ] in
  let insns =
    [ H.Opr { op = H.Bis; ra = 1; rb = H.Rb H.r31; rc = 6 };
      (* an intervening write to r6's source breaks the pattern *)
      H.Opr { op = H.Addq; ra = 2; rb = H.Lit 1; rc = 1 };
      H.Opr { op = H.And; ra = 6; rb = H.Lit 3; rc = 6 } ]
  in
  Alcotest.(check bool) "no false match" true (P.rewrite active insns = insns)

(* The no-hit path must return the input list itself (physical
   identity), not an equal copy — the fast translator relies on this to
   skip re-emission, and it keeps a rules-on no-match pass allocation
   free. *)
let test_rewrite_nohit_short_circuit () =
  let active = P.activate [ flagship; copy_mask ] in
  let insns =
    [ H.Lda { ra = 3; rb = H.r31; disp = 7 };
      H.Opr { op = H.Addq; ra = 2; rb = H.Lit 1; rc = 1 };
      H.Ldq_u { ra = 13; rb = 22; disp = 0 } ]
  in
  Alcotest.(check bool) "input returned physically" true (P.rewrite active insns == insns);
  Alcotest.(check int) "no hits counted" 0 (P.total_hits active);
  (* the empty rule set short-circuits on anything, even a match *)
  let none = P.activate [] in
  Alcotest.(check bool) "empty rule set is identity" true
    (P.rewrite none flagship_pattern == flagship_pattern)

(* --- the equivalence prover --------------------------------------------- *)

let test_check_rewrite_proves_flagship () =
  let r = V.check_rewrite ~pattern:flagship_pattern ~replacement:flagship_replacement in
  Alcotest.(check bool) "flagship proves" true (V.proves r);
  Alcotest.(check bool) "residue cases explored" true (r.V.envs_checked > 1)

let test_check_rewrite_refutes_wrong () =
  (* swap the merge to And: wrong on any overlapping byte *)
  let wrong =
    [ H.Bytem { op = H.Ext; width = 4; high = false; ra = lo; rb = H.Rb off; rc = lo };
      H.Bytem { op = H.Ext; width = 4; high = true; ra = hi; rb = H.Rb off; rc = hi };
      H.Opr { op = H.And; ra = lo; rb = H.Rb hi; rc = lo } ]
  in
  let r = V.check_rewrite ~pattern:flagship_pattern ~replacement:wrong in
  Alcotest.(check bool) "wrong replacement refuted" false (V.proves r);
  (* dropping the sign extension is also caught *)
  let unsext =
    [ H.Bytem { op = H.Ext; width = 4; high = false; ra = lo; rb = H.Rb off; rc = lo };
      H.Bytem { op = H.Ext; width = 4; high = true; ra = hi; rb = H.Rb off; rc = hi };
      H.Opr { op = H.Bis; ra = hi; rb = H.Rb lo; rc = lo } ]
  in
  let r2 = V.check_rewrite ~pattern:flagship_pattern ~replacement:unsext in
  Alcotest.(check bool) "dropped sext refuted" false (V.proves r2)

let test_budget_bailouts () =
  let mk kind =
    { V.block_start = 0; host_pc = None; kind; detail = "constructed" }
  in
  let report =
    { V.violations = [ mk "budget"; mk "equivalence"; mk "budget" ];
      blocks_checked = 1; paths_checked = 1; envs_checked = 1; sites_checked = 0;
      seqs_checked = 0 }
  in
  Alcotest.(check int) "two bail-outs counted" 2 (V.budget_bailouts report);
  Alcotest.(check bool) "hard violation blocks proof" false (V.proves report);
  let soft = { report with V.violations = [ mk "budget" ] } in
  Alcotest.(check bool) "bail-out alone blocks a *rule* proof" false (V.proves soft);
  Alcotest.(check bool) "but is soft for block validation" true (V.ok soft)

(* --- the miner at a fixed seed ------------------------------------------ *)

let mine_once =
  lazy
    (let images =
       List.map
         (fun name ->
           let w = W.Workload.instantiate ~scale:0.05 name in
           (name, W.Workload.fresh_memory w, W.Workload.entry w))
         [ "164.gzip"; "400.perlbench" ]
     in
     A.Miner.mine ~budget:200 ~max_len:4 ~seed:42 ~images ())

let test_miner_finds_rules () =
  let o = Lazy.force mine_once in
  Alcotest.(check bool) "windows enumerated" true (o.A.Miner.windows > 0);
  Alcotest.(check bool) "at least one rule" true (List.length o.A.Miner.rules >= 1);
  List.iter
    (fun (r : P.rule) ->
      Alcotest.(check (option string)) (r.P.id ^ " well-formed") None (P.rule_error r);
      Alcotest.(check bool) (r.P.id ^ " saves cycles") true (r.P.saves > 0))
    o.A.Miner.rules;
  (* determinism: same corpus, same seed, same outcome *)
  let images =
    List.map
      (fun name ->
        let w = W.Workload.instantiate ~scale:0.05 name in
        (name, W.Workload.fresh_memory w, W.Workload.entry w))
      [ "164.gzip"; "400.perlbench" ]
  in
  let o2 = A.Miner.mine ~budget:200 ~max_len:4 ~seed:42 ~images () in
  Alcotest.(check bool) "deterministic at fixed seed" true
    (o.A.Miner.rules = o2.A.Miner.rules && o.A.Miner.survivors = o2.A.Miner.survivors)

let test_miner_rules_prove () =
  let o = Lazy.force mine_once in
  List.iter
    (fun ((r : P.rule), report) ->
      Alcotest.(check bool) (r.P.id ^ " re-proves") true (V.proves report))
    (A.Miner.replay o.A.Miner.rules)

let test_survivors_keep_failing () =
  (* survivors passed concrete screening but carry no theorem: every one
     must still fail the prover, else it should have been a rule *)
  let o = Lazy.force mine_once in
  Alcotest.(check bool) "some survivors exported" true (o.A.Miner.survivors <> []);
  List.iter
    (fun (window, cand) ->
      let r = V.check_rewrite ~pattern:window ~replacement:cand in
      Alcotest.(check bool) "survivor still unproved" false (V.proves r))
    o.A.Miner.survivors

(* --- the committed rule file -------------------------------------------- *)

let committed = Test_util.committed_rules

let test_committed_rules () =
  match P.load committed with
  | Error e -> Alcotest.failf "cannot load %s: %s" committed e
  | Ok rules ->
    Alcotest.(check bool) "committed file non-empty" true (rules <> []);
    let active = P.activate rules in
    Alcotest.(check string) "digest matches print" (P.digest rules)
      (P.file_digest active);
    List.iter
      (fun ((r : P.rule), report) ->
        Alcotest.(check bool) (r.P.id ^ " proof replays") true (V.proves report);
        Alcotest.(check int) (r.P.id ^ " no bail-out") 0 (V.budget_bailouts report))
      (A.Miner.replay rules)

(* Installed tier end to end: a direct-mechanism run with the committed
   rules applies at least one rewrite (counted in the registry) and
   leaves guest state identical to the run without them. *)
let test_installed_tier () =
  match P.load committed with
  | Error e -> Alcotest.failf "cannot load %s: %s" committed e
  | Ok rules ->
    let run rules =
      let w = W.Workload.instantiate ~scale:0.05 "164.gzip" in
      let mem = W.Workload.fresh_memory w in
      let config = { (Bt.Runtime.default_config Bt.Mechanism.Direct) with rules } in
      let t = Bt.Runtime.create ~config ~mem () in
      let stats = Bt.Runtime.run t ~entry:(W.Workload.entry w) in
      (stats, Mda_machine.Memory.digest mem, t)
    in
    let s0, d0, _ = run None in
    let s1, d1, t1 = run (Some (P.activate rules)) in
    Alcotest.(check string) "memory digest identical" d0 d1;
    (* [guest_insns] is estimated from the host expansion ratio, which
       the tier changes by design — compare the exact counters instead *)
    Alcotest.(check int64) "interp insns identical" s0.Bt.Run_stats.interp_insns
      s1.Bt.Run_stats.interp_insns;
    Alcotest.(check int64) "memrefs identical" s0.Bt.Run_stats.memrefs
      s1.Bt.Run_stats.memrefs;
    Alcotest.(check int64) "mdas identical" s0.Bt.Run_stats.mdas s1.Bt.Run_stats.mdas;
    Alcotest.(check int64) "traps identical" s0.Bt.Run_stats.traps s1.Bt.Run_stats.traps;
    let hits =
      Int64.to_int (Bt.Counters.get t1.Bt.Runtime.counters Bt.Counters.Peephole_hits)
    in
    let saved =
      Int64.to_int (Bt.Counters.get t1.Bt.Runtime.counters Bt.Counters.Peephole_saved)
    in
    Alcotest.(check bool) "rewrites applied" true (hits > 0);
    Alcotest.(check bool) "cycles saved counted" true (saved > 0);
    Alcotest.(check bool) "host code shorter" true
      (s1.Bt.Run_stats.code_len < s0.Bt.Run_stats.code_len);
    Alcotest.(check bool) "modelled cycles saved" true
      (Int64.compare s1.Bt.Run_stats.cycles s0.Bt.Run_stats.cycles < 0)

let suite =
  [ ( "peephole",
      [ Alcotest.test_case "rule file roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "rule well-formedness" `Quick test_rule_error;
        Alcotest.test_case "rewrite engine + hit counters" `Quick test_rewrite;
        Alcotest.test_case "no false match" `Quick test_rewrite_preserves_unmatched;
        Alcotest.test_case "no-hit short-circuit is physical" `Quick
          test_rewrite_nohit_short_circuit;
        Alcotest.test_case "prover accepts flagship" `Quick test_check_rewrite_proves_flagship;
        Alcotest.test_case "prover refutes wrong rules" `Quick test_check_rewrite_refutes_wrong;
        Alcotest.test_case "budget bail-out counting" `Quick test_budget_bailouts;
        Alcotest.test_case "miner finds rules (seeded)" `Slow test_miner_finds_rules;
        Alcotest.test_case "mined rules prove" `Slow test_miner_rules_prove;
        Alcotest.test_case "survivors keep failing" `Slow test_survivors_keep_failing;
        Alcotest.test_case "committed rules re-prove" `Quick test_committed_rules;
        Alcotest.test_case "installed tier end to end" `Quick test_installed_tier ] ) ]
