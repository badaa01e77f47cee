(* The fault-injection layer: bounded-cache eviction, injected patch
   faults, and per-site graceful degradation must never change what the
   guest computes — only how the runtime gets there. The headline
   regression is the trap storm: a site whose patches are always refused
   must degrade to OS-style fixup after K failed attempts instead of
   trapping into the patcher forever. *)

module W = Mda_workloads
module Bt = Mda_bt
module A = Mda_analysis
module Obs = Mda_obs
module F = Mda_fault

(* --- workload scaffolding (mirrors the differential suite) ------------- *)

let fresh groups = W.Gen.load (W.Gen.build ~input:W.Gen.Ref groups)

let oracle groups = F.Oracle.interpret (fresh groups)

let group ?(sites = 1) ?(execs = 120) ?(bloat = 0) ~label behavior =
  { W.Gen.label;
    sites;
    execs;
    width = 4;
    mix = W.Gen.Loads_only;
    behavior;
    bloat;
    lib = false;
    via_call = false }

(* Run [groups] under [mechanism] with [faults] injected, tracing every
   event; returns (stats, sink, state, cache). *)
let run_faulted ?(flush = Bt.Runtime.Block_granularity) ~mechanism ~faults groups =
  let sink = Obs.Trace.create () in
  let config =
    { (Bt.Runtime.default_config mechanism) with
      flush_policy = flush;
      faults;
      on_event = Some (Obs.Trace.hook sink) }
  in
  let entry, mem = fresh groups in
  let t = Bt.Runtime.create ~config ~mem () in
  Obs.Trace.attach sink t;
  let stats = Bt.Runtime.run t ~entry in
  (stats, sink, F.Oracle.state t.Bt.Runtime.cpu, t.Bt.Runtime.cache)

let count_ev records f = List.length (List.filter (fun r -> f r.Obs.Trace.ev) records)

(* --- the trap-storm regression ----------------------------------------- *)

(* An unpatchable site under a bounded cache: the handler refuses every
   patch, so without degradation the hot loop would trap into the
   patcher on every iteration. With degradation, each site may cost at
   most K patching traps (K failed attempts) before it is served by
   OS-style fixup forever; the run still halts with the oracle's
   state. *)
let test_trap_storm_degrades () =
  let k = 3 in
  let groups = [ group ~label:"storm" ~execs:120 (W.Gen.Misaligned) ] in
  let faults =
    { Bt.Runtime.cache_capacity = Some 48;
      patch_budget = None;
      patch_refuse = Some (fun ~guest_addr:_ ~attempt:_ -> true);
      degrade_after = k }
  in
  let mechanism = Bt.Mechanism.Exception_handling { rearrange = false } in
  let stats, sink, state, cache = run_faulted ~mechanism ~faults groups in
  let records = Obs.Trace.records sink in
  Alcotest.(check bool) "run halts" true (stats.Bt.Run_stats.stop = Bt.Run_stats.Halted);
  Alcotest.(check bool) "state equals the oracle" true (F.Oracle.state_eq (oracle groups) state);
  Alcotest.(check bool) "at least one site degraded" true (stats.Bt.Run_stats.degraded >= 1);
  Alcotest.(check bool) "Ev_degrade in the trace" true
    (count_ev records (function Bt.Runtime.Ev_degrade _ -> true | _ -> false) >= 1);
  Alcotest.(check int) "no patch ever succeeded" 0 stats.Bt.Run_stats.patches;
  (* per degraded site: at most K+1 traps ever reach the patching path *)
  let degraded_sites =
    List.filter_map
      (fun r ->
        match r.Obs.Trace.ev with
        | Bt.Runtime.Ev_degrade { guest_addr; attempts } -> Some (guest_addr, attempts)
        | _ -> None)
      records
  in
  List.iter
    (fun (addr, attempts) ->
      Alcotest.(check int) "degraded after exactly K attempts" k attempts;
      let traps_here =
        count_ev records (function
          | Bt.Runtime.Ev_trap { guest_addr; _ } -> guest_addr = addr
          | _ -> false)
      in
      Alcotest.(check bool)
        (Printf.sprintf "traps at site %#x bounded by K+1 (saw %d)" addr traps_here)
        true
        (traps_here <= k + 1))
    degraded_sites;
  Alcotest.(check bool) "some sites degraded" true (degraded_sites <> []);
  (* every later access at a degraded site is an OS fixup, and the
     degradation survives in the selfcheck-able cache *)
  Alcotest.(check bool) "OS fixups carried the load" true
    (count_ev records (function Bt.Runtime.Ev_os_fixup _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "selfcheck holds" true
    (A.Check.ok (A.Check.run ~capacity:48 cache))

(* Degradation is keyed on the guest address, outside the code cache: an
   eviction (which drops the block, its sites and its patches) must not
   resurrect the patching path for a degraded site. *)
let test_degradation_survives_eviction () =
  let k = 1 in
  let groups =
    [ group ~label:"a" ~execs:100 ~bloat:4 W.Gen.Misaligned;
      group ~label:"b" ~execs:100 ~bloat:4 W.Gen.Misaligned ]
  in
  let faults =
    { Bt.Runtime.cache_capacity = Some 30;
      patch_budget = None;
      patch_refuse = Some (fun ~guest_addr:_ ~attempt:_ -> true);
      degrade_after = k }
  in
  let mechanism = Bt.Mechanism.Exception_handling { rearrange = false } in
  let stats, sink, state, _ = run_faulted ~mechanism ~faults groups in
  let records = Obs.Trace.records sink in
  Alcotest.(check bool) "state equals the oracle" true (F.Oracle.state_eq (oracle groups) state);
  Alcotest.(check bool) "evictions happened" true (stats.Bt.Run_stats.evictions > 0);
  (* once degraded, a site never re-enters the patching path — even
     after its block was evicted and re-translated *)
  let degraded = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.Obs.Trace.ev with
      | Bt.Runtime.Ev_degrade { guest_addr; _ } -> Hashtbl.replace degraded guest_addr ()
      | Bt.Runtime.Ev_trap { guest_addr; _ } when Hashtbl.mem degraded guest_addr ->
        Alcotest.failf "Ev_trap at degraded site %#x after Ev_degrade" guest_addr
      | _ -> ())
    records;
  Alcotest.(check bool) "something degraded" true (Hashtbl.length degraded > 0)

(* --- eviction under capacity pressure ----------------------------------- *)

let eviction_mechanism = Bt.Mechanism.Dpeh { threshold = 2; retranslate = None; multiversion = false }

let test_eviction_under_pressure () =
  List.iter
    (fun flush ->
      let groups =
        [ group ~label:"p" ~execs:100 ~bloat:5 W.Gen.Misaligned;
          group ~label:"q" ~execs:100 ~bloat:5 (W.Gen.Mixed { period = 2 });
          group ~label:"r" ~execs:100 ~bloat:5 W.Gen.Aligned ]
      in
      let cap = 60 in
      let faults = { Bt.Runtime.no_faults with cache_capacity = Some cap } in
      let stats, sink, state, cache =
        run_faulted ~flush ~mechanism:eviction_mechanism ~faults groups
      in
      Alcotest.(check bool) "halts" true (stats.Bt.Run_stats.stop = Bt.Run_stats.Halted);
      Alcotest.(check bool) "state equals the oracle" true (F.Oracle.state_eq (oracle groups) state);
      Alcotest.(check bool) "evictions happened" true (stats.Bt.Run_stats.evictions > 0);
      Alcotest.(check int) "eviction counter matches the trace"
        stats.Bt.Run_stats.evictions
        (count_ev (Obs.Trace.records sink) (function Bt.Runtime.Ev_evict _ -> true | _ -> false));
      let report = A.Check.run ~capacity:cap cache in
      Alcotest.(check bool) "selfcheck (incl. occupancy) holds" true (A.Check.ok report);
      Alcotest.(check bool) "post-run occupancy within bound (or one block)" true
        (report.A.Check.live_insns <= cap
        || List.length
             (List.filter
                (fun b -> b.Bt.Code_cache.entry <> None)
                (Bt.Code_cache.blocks_sorted cache))
           <= 1))
    [ Bt.Runtime.Block_granularity; Bt.Runtime.Full_flush ]

(* Eviction-era traces still round-trip and replay to the run's own
   statistics (evictions, patch faults and degradations included). *)
let test_faulted_trace_replays () =
  let groups =
    [ group ~label:"x" ~execs:100 ~bloat:4 W.Gen.Misaligned;
      group ~label:"y" ~execs:100 ~bloat:4 W.Gen.Misaligned ]
  in
  let faults =
    { Bt.Runtime.cache_capacity = Some 40;
      patch_budget = Some 1;
      patch_refuse = None;
      degrade_after = 2 }
  in
  let mechanism = Bt.Mechanism.Exception_handling { rearrange = false } in
  let stats, sink, _, _ = run_faulted ~mechanism ~faults groups in
  Alcotest.(check bool) "plan produced faults" true
    (stats.Bt.Run_stats.evictions > 0 && stats.Bt.Run_stats.patch_faults > 0);
  match F.Oracle.replay_problem ~mechanism:"eh" ~bench:"fault-replay" ~stats sink with
  | Some problem -> Alcotest.fail problem
  | None -> ()

(* --- fault plans --------------------------------------------------------- *)

let test_plans_deterministic () =
  let draw () =
    let rng = Mda_util.Rng.create 99L in
    List.init 10 (fun id -> F.Plan.random ~rng ~id)
  in
  let a = draw () and b = draw () in
  Alcotest.(check bool) "same seed, same plans" true (a = b);
  List.iter
    (fun p ->
      Alcotest.(check bool) "same plan, same workload" true
        (F.Plan.groups p = F.Plan.groups p);
      Alcotest.(check bool) "site verdict is stable" true
        (F.Plan.site_unpatchable p ~guest_addr:0x1234
        = F.Plan.site_unpatchable p ~guest_addr:0x1234);
      Alcotest.(check bool) "describe mentions the id" true
        (String.length (F.Plan.describe p) > 0))
    a;
  (* different seeds diverge (statistically certain over 10 draws) *)
  let rng2 = Mda_util.Rng.create 100L in
  let c = List.init 10 (fun id -> F.Plan.random ~rng:rng2 ~id) in
  Alcotest.(check bool) "different seed, different plans" true (a <> c)

let test_chaos_smoke () =
  let outcomes = F.Chaos.run ~jobs:1 ~seed:7 ~plans:2 () in
  Alcotest.(check int) "2 plans x 7 mechanisms" 14 (List.length outcomes);
  List.iter
    (fun (o : F.Chaos.outcome) ->
      if not o.F.Chaos.ok then
        Alcotest.failf "chaos cell failed: %s / %s: %s" (F.Plan.describe o.F.Chaos.plan)
          o.F.Chaos.mech
          (String.concat "; " o.F.Chaos.problems))
    outcomes

let test_serve_chaos_smoke () =
  let outcomes = F.Mt_chaos.run ~jobs:1 ~seed:7 ~plans:3 () in
  Alcotest.(check int) "3 plans x 6 mechanisms" 18 (List.length outcomes);
  List.iter
    (fun (o : F.Mt_chaos.outcome) ->
      if not o.F.Mt_chaos.ok then
        Alcotest.failf "serve chaos cell failed: %s / %s: %s"
          (F.Mt_plan.describe o.F.Mt_chaos.plan)
          o.F.Mt_chaos.mech
          (String.concat "; " o.F.Mt_chaos.problems))
    outcomes;
  (* the battery is deterministic and parallelism-invariant *)
  let again = F.Mt_chaos.run ~jobs:3 ~seed:7 ~plans:3 () in
  Alcotest.(check bool) "byte-identical across jobs levels" true (outcomes = again);
  (* the multi-tenant fault space is actually exercised over a few draws *)
  let some f = List.exists f outcomes in
  Alcotest.(check bool) "some cell restarted a session" true
    (some (fun o -> o.F.Mt_chaos.restarts > 0));
  Alcotest.(check bool) "some cell demoted a storm tenant" true
    (some (fun o -> o.F.Mt_chaos.demotions > 0))

let test_chaos_harness_faults () =
  List.iter
    (fun (name, (ok, detail)) ->
      Alcotest.(check bool) (Printf.sprintf "%s contained (%s)" name detail) true ok)
    (F.Chaos.harness_faults ())

let suite =
  [ ( "fault",
      [ Alcotest.test_case "trap storm degrades after K" `Quick test_trap_storm_degrades;
        Alcotest.test_case "degradation survives eviction" `Quick
          test_degradation_survives_eviction;
        Alcotest.test_case "eviction under pressure" `Quick test_eviction_under_pressure;
        Alcotest.test_case "faulted trace replays" `Quick test_faulted_trace_replays;
        Alcotest.test_case "plans deterministic" `Quick test_plans_deterministic;
        Alcotest.test_case "chaos smoke" `Slow test_chaos_smoke;
        Alcotest.test_case "serve chaos smoke" `Slow test_serve_chaos_smoke;
        Alcotest.test_case "chaos harness faults" `Quick test_chaos_harness_faults ] ) ]
