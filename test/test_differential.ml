(* Differential sweep over random *workloads*: where test_equiv feeds the
   engines random instruction soup, this suite feeds them random
   Gen-level workload specifications — hot loops with data-controlled
   alignment behaviour (phase switches, striding pointers, input-dependent
   cells, call/ret bodies, shared-library placement) — and asserts that
   every MDA-handling mechanism leaves the guest in
   exactly the state the reference interpreter computes: same registers,
   same memory image.

   The generator is seeded, so a failure reproduces byte-for-byte. *)

module W = Mda_workloads
module Bt = Mda_bt
module F = Mda_fault
module Spec = Mda_mech.Mech_spec

(* --- random workload-spec generator ------------------------------------ *)

let gen_behavior : W.Gen.behavior QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [ return W.Gen.Aligned;
      return W.Gen.Misaligned;
      map (fun onset -> W.Gen.Late { onset }) (int_range 1 40);
      return W.Gen.Input_dep;
      (* Mixed period must divide the width; Rare period is a power of
         two — the caller fixes them up against the generated width *)
      return (W.Gen.Mixed { period = 2 });
      map (fun k -> W.Gen.Rare { period = 1 lsl k }) (int_range 1 3) ]

let gen_group i : W.Gen.group QCheck.Gen.t =
  let open QCheck.Gen in
  let* width = oneofl [ 2; 4; 8 ] in
  let* behavior = gen_behavior in
  let behavior =
    match behavior with
    | W.Gen.Mixed _ ->
      (* any divisor > 1 of the width keeps the stride legal *)
      W.Gen.Mixed { period = (if width = 2 then 2 else width / 2) }
    | b -> b
  in
  let* sites = int_range 1 4 in
  (* execs straddle the default heating threshold (50) so some groups
     stay interpreted while others get translated *)
  let* execs = oneof [ int_range 3 30; int_range 55 120 ] in
  let* mix = oneofl [ W.Gen.Loads_only; W.Gen.Alternate; W.Gen.Stores_only ] in
  let* bloat = int_range 0 3 in
  let* lib = bool in
  let* via_call = bool in
  return
    { W.Gen.label = Printf.sprintf "g%d" i; sites; execs; width; mix; behavior;
      bloat; lib; via_call }

let gen_spec : W.Gen.group list QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 4 in
  let rec groups i =
    if i >= n then return [] else
      let* g = gen_group i in
      let* rest = groups (i + 1) in
      return (g :: rest)
  in
  groups 0

let print_spec groups =
  String.concat "; "
    (List.map
       (fun g ->
         Printf.sprintf
           "{%s sites=%d execs=%d width=%d mix=%s behavior=%s bloat=%d lib=%b call=%b}"
           g.W.Gen.label g.W.Gen.sites g.W.Gen.execs g.W.Gen.width
           (match g.W.Gen.mix with
           | W.Gen.Loads_only -> "loads"
           | W.Gen.Alternate -> "alt"
           | W.Gen.Stores_only -> "stores")
           (match g.W.Gen.behavior with
           | W.Gen.Aligned -> "aligned"
           | W.Gen.Misaligned -> "misaligned"
           | W.Gen.Late { onset } -> Printf.sprintf "late(%d)" onset
           | W.Gen.Input_dep -> "input-dep"
           | W.Gen.Mixed { period } -> Printf.sprintf "mixed(%d)" period
           | W.Gen.Rare { period } -> Printf.sprintf "rare(%d)" period)
           g.W.Gen.bloat g.W.Gen.lib g.W.Gen.via_call)
       groups)

(* --- running ---------------------------------------------------------- *)

let subject groups = F.Chaos.subject_of_groups ~name:"differential" groups

let run_reference groups = F.Oracle.interpret ((subject groups).Spec.image ())

(* Prepare [spec] for the workload exactly as the chaos runner does
   (static profiling trains on the Train input, static analysis and AOT
   run the congruence dataflow on the binary) and run it. *)
let run_rt ?rules spec groups =
  let s = subject groups in
  let rules = Option.map Mda_host.Peephole.activate rules in
  let p = Spec.prepare ?rules s spec in
  let entry, mem = s.Spec.image () in
  let config = { (Bt.Runtime.default_config p.Spec.mechanism) with rules } in
  let t = Bt.Runtime.create ~config ?cache:(Option.map fst p.Spec.aot) ~mem () in
  (Bt.Runtime.run t ~entry, t)

(* The final guest state with the run's statistics. *)
let run_spec ?rules spec groups =
  let stats, t = run_rt ?rules spec groups in
  (F.Oracle.state t.Bt.Runtime.cpu, stats)

(* Every stress-family mechanism but aot, which is checked below
   against its dynamic twin. *)
let mechanisms = List.filter (fun (label, _) -> label <> "aot") Spec.stress_labels

let buildable groups =
  match W.Gen.build ~input:W.Gen.Ref groups with
  | (_ : W.Gen.program) -> true
  | exception Invalid_argument _ -> false

(* --- the property ------------------------------------------------------- *)

let differential_test (label, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "workload state: interp == %s" label)
    ~count:60
    (QCheck.make gen_spec ~print:print_spec)
    (fun groups ->
      QCheck.assume (buildable groups);
      F.Oracle.state_eq (run_reference groups) (fst (run_spec spec groups)))

(* Under real capacity pressure the two flush policies of Section IV-C
   take very different eviction paths (one victim at a time vs dropping
   the whole cache), but both merely discard translations — so the final
   guest state must be identical. Cycle and translation counts are
   allowed (expected, even) to differ. *)
let run_bounded flush groups =
  let mechanism = Bt.Mechanism.Exception_handling { rearrange = true } in
  let config =
    { (Bt.Runtime.default_config mechanism) with
      flush_policy = flush;
      faults = { Bt.Runtime.no_faults with cache_capacity = Some 48 } }
  in
  let entry, mem = (subject groups).Spec.image () in
  let t = Bt.Runtime.create ~config ~mem () in
  let _ = Bt.Runtime.run t ~entry in
  F.Oracle.state t.Bt.Runtime.cpu

let flush_equiv_test =
  QCheck.Test.make
    ~name:"bounded cache: block-granularity state == full-flush state"
    ~count:40
    (QCheck.make gen_spec ~print:print_spec)
    (fun groups ->
      QCheck.assume (buildable groups);
      F.Oracle.state_eq
        (run_bounded Bt.Runtime.Block_granularity groups)
        (run_bounded Bt.Runtime.Full_flush groups))

(* AOT: the whole image is translated ahead of time from the same
   congruence summary, then executed from the immutable pre-populated
   cache with translation disabled. The final guest state must equal
   both the pure interpreter's AND the dynamic Static_analysis run's on
   the same summary and unknown-site policy — and the immutable cache
   must show zero runtime translations and zero patches. *)
let aot_test (label, unknown) =
  QCheck.Test.make
    ~name:(Printf.sprintf "workload state: interp == aot(%s) == sa(%s)" label label)
    ~count:60
    (QCheck.make gen_spec ~print:print_spec)
    (fun groups ->
      QCheck.assume (buildable groups);
      let reference = run_reference groups in
      let dynamic, _ = run_spec (Spec.Static_analysis { unknown }) groups in
      let aot, stats = run_spec (Spec.Aot { unknown }) groups in
      if stats.Bt.Run_stats.translations <> 0 || stats.Bt.Run_stats.patches <> 0 then
        failwith "AOT run translated or patched at runtime";
      if stats.Bt.Run_stats.stop <> Bt.Run_stats.Halted then
        failwith
          ("AOT run did not halt: " ^ Bt.Run_stats.stop_reason_to_string stats.Bt.Run_stats.stop);
      F.Oracle.state_eq reference aot && F.Oracle.state_eq reference dynamic)

let aot_policies = [ ("seq", Bt.Mechanism.Sa_seq); ("eh", Bt.Mechanism.Sa_fallback) ]

(* --- the peephole tier is guest-invisible ------------------------------- *)

(* The committed, validator-proved rule file, resolved through
   [Test_util.committed_rules] so it is found under both [dune runtest]
   and [dune exec]. *)
let committed_rules =
  lazy
    (match Mda_host.Peephole.load Test_util.committed_rules with
    | Ok [] -> failwith "rules/pr8.rules is empty"
    | Ok rs -> rs
    | Error e -> failwith e)

(* With and without the rewrite tier: identical guest state, memory
   digest and trap/patch/degradation counters. Only host cycles,
   host-instruction counts and code-cache bytes may differ — the tier
   only shortens host code. [guest_insns] is deliberately absent: its
   translated-code share is estimated from the average host expansion
   ratio, which the tier changes by design; the exactly-counted
   [interp_insns]/[memrefs]/[mdas] stand in for it. *)
let guest_invisible (a, (sa : Bt.Run_stats.t)) (b, (sb : Bt.Run_stats.t)) =
  F.Oracle.state_eq a b
  && sa.Bt.Run_stats.stop = sb.Bt.Run_stats.stop
  && Int64.equal sa.Bt.Run_stats.interp_insns sb.Bt.Run_stats.interp_insns
  && Int64.equal sa.Bt.Run_stats.memrefs sb.Bt.Run_stats.memrefs
  && Int64.equal sa.Bt.Run_stats.mdas sb.Bt.Run_stats.mdas
  && Int64.equal sa.Bt.Run_stats.traps sb.Bt.Run_stats.traps
  && sa.Bt.Run_stats.patches = sb.Bt.Run_stats.patches
  && sa.Bt.Run_stats.translations = sb.Bt.Run_stats.translations
  && sa.Bt.Run_stats.retranslations = sb.Bt.Run_stats.retranslations
  && sa.Bt.Run_stats.degraded = sb.Bt.Run_stats.degraded

let rules_equiv_test (label, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "peephole tier guest-invisible: %s" label)
    ~count:30
    (QCheck.make gen_spec ~print:print_spec)
    (fun groups ->
      QCheck.assume (buildable groups);
      guest_invisible (run_spec spec groups)
        (run_spec ~rules:(Lazy.force committed_rules) spec groups))

(* Seeded: the sweep is deterministic run-to-run, and a reported
   counterexample replays exactly. *)
let seed = 0x5eed_2026

let cases =
  List.map
    (fun m ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
        (differential_test m))
    mechanisms
  @ List.map
      (fun p ->
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) (aot_test p))
      aot_policies
  @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) flush_equiv_test ]
  @ List.map
      (fun m ->
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
          (rules_equiv_test m))
      mechanisms
  @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
        (rules_equiv_test ("aot(seq)", Spec.Aot { unknown = Bt.Mechanism.Sa_seq })) ]

let suite = [ ("differential", cases) ]
