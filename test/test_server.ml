(* The serving layer: step-resumable sessions must compute exactly what
   a whole-run runtime computes; the scheduler's admission control,
   supervisor and storm detector must be deterministic and bounded; and
   the shared cache's eviction fairness must hold under arbitrary
   pressure (the qcheck property). *)

module Bt = Mda_bt
module Obs = Mda_obs
module Srv = Mda_server
module F = Mda_fault
module H = Mda_host.Isa

let oracle tspec = F.Oracle.interpret (Srv.Tenants.fresh_mem tspec)

let session_state (s : Srv.Session.t) = F.Oracle.state s.Srv.Session.rt.Bt.Runtime.cpu

(* --- step-resumable sessions ------------------------------------------- *)

(* Slicing a session must be invisible: same final guest state and the
   exact same Run_stats as the whole-run entry point, under every
   mechanism (aot has no serving story; its immutable cache cannot be
   shared). *)
let test_session_equiv () =
  let mechs = [ "direct"; "static-profiling"; "dynamic-profiling"; "eh"; "dpeh"; "sa" ] in
  let tspecs =
    Srv.Tenants.derive ~noisy:[ 1 ] ~storm:[ 2 ] ~seed:7L ~tenants:3 ()
  in
  List.iter
    (fun mech ->
      List.iter
        (fun tspec ->
          let mechanism = Srv.Tenants.mechanism_of tspec mech in
          let config = Bt.Runtime.default_config mechanism in
          (* whole-run *)
          let entry, mem = Srv.Tenants.fresh_mem tspec in
          let rt = Bt.Runtime.create ~config ~mem () in
          let run_stats = Bt.Runtime.run rt ~entry in
          let run_state = F.Oracle.state rt.Bt.Runtime.cpu in
          (* sliced *)
          let entry2, mem2 = Srv.Tenants.fresh_mem tspec in
          let sess =
            Srv.Session.create ~sid:0 ~tid:tspec.Srv.Tenants.tid ~config ~mem:mem2
              ~entry:entry2 ()
          in
          let rec drive n =
            if n > 1_000_000 then Alcotest.fail "session never terminated";
            match Srv.Session.step sess ~fuel:7 with
            | Srv.Session.Running | Srv.Session.Degraded -> drive (n + 1)
            | Srv.Session.Halted -> ()
            | Srv.Session.Faulted f ->
              Alcotest.failf "%s tenant %d: session faulted: %s" mech
                tspec.Srv.Tenants.tid (Srv.Session.fault_to_string f)
          in
          drive 0;
          let name = Printf.sprintf "%s tenant %d" mech tspec.Srv.Tenants.tid in
          Alcotest.(check bool) (name ^ ": state matches whole-run") true
            (F.Oracle.state_eq run_state (session_state sess));
          let sess_stats = Srv.Session.stats sess in
          Alcotest.(check bool) (name ^ ": stats match whole-run") true
            (run_stats = sess_stats);
          (* terminal statuses are sticky *)
          Alcotest.(check bool) (name ^ ": halt is sticky") true
            (Srv.Session.step sess ~fuel:3 = Srv.Session.Halted))
        tspecs)
    mechs

(* --- scheduler scaffolding --------------------------------------------- *)

let spec_of ?(arrival = 0) ?crash_at ?first_fuel ?(config_of = fun c -> c) tspec mech =
  let entry, _ = Srv.Tenants.fresh_mem tspec in
  let config = config_of (Bt.Runtime.default_config (Srv.Tenants.mechanism_of tspec mech)) in
  {
    Srv.Scheduler.tid = tspec.Srv.Tenants.tid;
    arrival;
    entry;
    fresh_mem = (fun () -> snd (Srv.Tenants.fresh_mem tspec));
    config;
    crash_at;
    first_fuel;
  }

let check_finals_against_oracle name tspecs (outcome : Srv.Scheduler.outcome) =
  List.iteri
    (fun sid sess ->
      match sess with
      | None -> ()
      | Some s ->
        let tspec = List.nth tspecs s.Srv.Session.tid in
        Alcotest.(check bool)
          (Printf.sprintf "%s: session %d state matches oracle" name sid)
          true
          (F.Oracle.state_eq (oracle tspec) (session_state s)))
    outcome.Srv.Scheduler.finals

(* --- admission control ------------------------------------------------- *)

let test_admission () =
  let tspecs = Srv.Tenants.derive ~seed:11L ~tenants:1 () in
  let t0 = List.hd tspecs in
  let specs = [ spec_of t0 "eh"; spec_of t0 "eh"; spec_of t0 "eh" ] in
  let cfg =
    { Srv.Scheduler.default_config with Srv.Scheduler.max_live = 1; queue_limit = 1 }
  in
  let o = Srv.Scheduler.run ~tenants:1 cfg specs in
  let r = o.Srv.Scheduler.report in
  let d sid =
    (List.nth r.Srv.Scheduler.sessions sid).Srv.Scheduler.decision
  in
  Alcotest.(check string) "sid 0 admitted" "admitted"
    (Srv.Scheduler.decision_to_string (d 0));
  Alcotest.(check string) "sid 1 deferred" "deferred"
    (Srv.Scheduler.decision_to_string (d 1));
  Alcotest.(check string) "sid 2 rejected" "rejected"
    (Srv.Scheduler.decision_to_string (d 2));
  Alcotest.(check int) "one defer" 1 r.Srv.Scheduler.admission_defers;
  Alcotest.(check int) "one reject" 1 r.Srv.Scheduler.admission_rejects;
  (* the registry agrees with the report *)
  Alcotest.(check int) "registry defers" 1
    (Bt.Counters.geti o.Srv.Scheduler.counters Bt.Counters.Admission_defers);
  Alcotest.(check int) "registry rejects" 1
    (Bt.Counters.geti o.Srv.Scheduler.counters Bt.Counters.Admission_rejects);
  (* rejected session never ran *)
  (match (List.nth r.Srv.Scheduler.sessions 2).Srv.Scheduler.status with
  | None -> ()
  | Some _ -> Alcotest.fail "rejected session has a status");
  Alcotest.(check bool) "rejected final is None" true
    (List.nth o.Srv.Scheduler.finals 2 = None);
  (* admitted and deferred both ran to completion, correctly *)
  List.iter
    (fun sid ->
      match (List.nth r.Srv.Scheduler.sessions sid).Srv.Scheduler.status with
      | Some Srv.Session.Halted -> ()
      | _ -> Alcotest.failf "session %d did not halt" sid)
    [ 0; 1 ];
  check_finals_against_oracle "admission" tspecs o

(* --- supervisor -------------------------------------------------------- *)

(* A fuel-stuck first incarnation (tiny fuel override) faults; the
   supervisor restarts it with a fresh memory and the real fuel budget,
   and the restart completes with the oracle's answer. *)
let test_supervisor_restart () =
  let tspecs = Srv.Tenants.derive ~seed:13L ~tenants:1 () in
  let t0 = List.hd tspecs in
  let specs =
    [ spec_of ~first_fuel:40 t0 "eh"; spec_of ~crash_at:5 t0 "dynamic-profiling" ]
  in
  let cfg =
    { Srv.Scheduler.default_config with Srv.Scheduler.backoff_cap = 4 }
  in
  let o = Srv.Scheduler.run ~tenants:1 cfg specs in
  let r = o.Srv.Scheduler.report in
  Alcotest.(check int) "two restarts total" 2 r.Srv.Scheduler.restarts;
  Alcotest.(check int) "registry restarts" 2
    (Bt.Counters.geti o.Srv.Scheduler.counters Bt.Counters.Restarts);
  List.iteri
    (fun sid (s : Srv.Scheduler.session_report) ->
      Alcotest.(check int) (Printf.sprintf "session %d restarted once" sid) 1
        s.Srv.Scheduler.restarts;
      match s.Srv.Scheduler.status with
      | Some Srv.Session.Halted -> ()
      | _ -> Alcotest.failf "session %d did not halt after restart" sid)
    r.Srv.Scheduler.sessions;
  Alcotest.(check bool) "backoff within cap" true
    (r.Srv.Scheduler.max_backoff_used <= 4);
  check_finals_against_oracle "supervisor" tspecs o

(* A session whose every incarnation is fuel-stuck exhausts its restart
   budget: delays grow exponentially but never exceed the cap, and the
   session ends Faulted, not looping forever. *)
let test_supervisor_gives_up () =
  let tspecs = Srv.Tenants.derive ~seed:17L ~tenants:1 () in
  let t0 = List.hd tspecs in
  let specs =
    [ spec_of ~config_of:(fun c -> { c with Bt.Runtime.fuel = 40 }) t0 "eh" ]
  in
  let cfg =
    {
      Srv.Scheduler.default_config with
      Srv.Scheduler.backoff_cap = 4;
      max_restarts = 4;
    }
  in
  let o = Srv.Scheduler.run ~tenants:1 cfg specs in
  let r = o.Srv.Scheduler.report in
  let s = List.hd r.Srv.Scheduler.sessions in
  Alcotest.(check int) "all restarts spent" 4 s.Srv.Scheduler.restarts;
  (match s.Srv.Scheduler.status with
  | Some (Srv.Session.Faulted Srv.Session.Fuel_exhausted) -> ()
  | _ -> Alcotest.fail "session should end fuel-faulted");
  (* delays 1, 2, 4, then clamped at 4 = the cap *)
  Alcotest.(check int) "exponential backoff hits exactly the cap" 4
    r.Srv.Scheduler.max_backoff_used

(* One tenant's store outside simulated memory faults its own session,
   every incarnation of it, and nothing else: the other tenants'
   sessions halt with their oracle state. The wild program is assembled
   in its own tenant window so it shares no block keys with the others. *)
let test_wild_store_is_contained () =
  let tspecs = Srv.Tenants.derive ~seed:19L ~tenants:2 () in
  let wild_tid = 2 in
  let wild =
    match
      Mda_guest.Parse.program ~base:(Srv.Tenants.base_of wild_tid)
        (Test_util.slurp Test_asm.wild_store_path)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "wild_store.asm: %a" Mda_guest.Parse.pp_error e
  in
  let wild_spec =
    { Srv.Scheduler.tid = wild_tid;
      arrival = 0;
      entry = wild.Mda_guest.Asm.base;
      fresh_mem =
        (fun () ->
          let mem = Mda_machine.Memory.create ~size_bytes:Bt.Layout.mem_size in
          Mda_machine.Memory.load_image mem ~addr:wild.Mda_guest.Asm.base
            wild.Mda_guest.Asm.image;
          mem);
      config = Bt.Runtime.default_config Bt.Mechanism.Direct;
      crash_at = None;
      first_fuel = None }
  in
  let t0 = List.nth tspecs 0 and t1 = List.nth tspecs 1 in
  let specs = [ spec_of t0 "eh"; wild_spec; spec_of t1 "dpeh"; spec_of t0 "direct" ] in
  let o = Srv.Scheduler.run ~tenants:3 Srv.Scheduler.default_config specs in
  List.iteri
    (fun sid sess ->
      match sess with
      | None -> Alcotest.failf "session %d was rejected" sid
      | Some s when s.Srv.Session.tid = wild_tid -> (
        match s.Srv.Session.status with
        | Srv.Session.Faulted (Srv.Session.Error msg) ->
          Alcotest.(check bool) "wild session names the access" true
            (Test_cli.contains ~needle:"out of bounds" msg)
        | st ->
          Alcotest.failf "wild session ended %s"
            (match st with
            | Srv.Session.Faulted f -> Srv.Session.fault_to_string f
            | _ -> "without a fault"))
      | Some s ->
        Alcotest.(check bool) (Printf.sprintf "session %d halted" sid) true
          (s.Srv.Session.status = Srv.Session.Halted);
        Alcotest.(check bool)
          (Printf.sprintf "session %d state matches oracle" sid)
          true
          (F.Oracle.state_eq (oracle (List.nth tspecs s.Srv.Session.tid)) (session_state s)))
    o.Srv.Scheduler.finals

(* --- trap-storm demotion ----------------------------------------------- *)

(* A storm tenant whose patches are always refused (and whose sites
   never self-degrade) traps on every misaligned execution. The
   detector must demote that tenant — and only that tenant — after
   which its traps are serviced by OS fixup with no further patch
   attempts; everyone still computes the oracle's answer. *)
let test_storm_demotion () =
  let tspecs = Srv.Tenants.derive ~storm:[ 1 ] ~seed:19L ~tenants:2 () in
  let steady = List.nth tspecs 0 and storm = List.nth tspecs 1 in
  let stormy c =
    {
      c with
      Bt.Runtime.faults =
        {
          Bt.Runtime.no_faults with
          Bt.Runtime.patch_refuse = Some (fun ~guest_addr:_ ~attempt:_ -> true);
          degrade_after = max_int;
        };
    }
  in
  let specs =
    [ spec_of steady "eh"; spec_of ~config_of:stormy storm "eh" ]
  in
  let cfg =
    {
      Srv.Scheduler.default_config with
      Srv.Scheduler.storm_window = 4;
      storm_traps = 10;
    }
  in
  let o = Srv.Scheduler.run ~tenants:2 cfg specs in
  let r = o.Srv.Scheduler.report in
  Alcotest.(check int) "one demotion" 1 r.Srv.Scheduler.demotions;
  let tr tid = List.nth r.Srv.Scheduler.tenants tid in
  Alcotest.(check bool) "storm tenant demoted" true (tr 1).Srv.Scheduler.demoted;
  Alcotest.(check bool) "steady tenant untouched" false (tr 0).Srv.Scheduler.demoted;
  List.iter
    (fun (s : Srv.Scheduler.session_report) ->
      match s.Srv.Scheduler.status with
      | Some Srv.Session.Halted -> ()
      | _ -> Alcotest.failf "session %d did not halt" s.Srv.Scheduler.sid)
    r.Srv.Scheduler.sessions;
  check_finals_against_oracle "storm" tspecs o;
  (* after demotion the storming runtime really is in fixup-only mode *)
  (match List.nth o.Srv.Scheduler.finals 1 with
  | Some s ->
    Alcotest.(check bool) "storm runtime fixup-only" true
      s.Srv.Session.rt.Bt.Runtime.os_fixup_only
  | None -> Alcotest.fail "storm session missing");
  Alcotest.(check bool) "storm tenant still trapped" true
    Int64.(compare (tr 1).Srv.Scheduler.t_stats.Bt.Run_stats.traps 0L > 0)

(* --- determinism ------------------------------------------------------- *)

let serve_outcome seed =
  let tspecs = Srv.Tenants.derive ~noisy:[ 1 ] ~seed ~tenants:3 () in
  let specs =
    List.concat_map
      (fun t -> [ spec_of t "eh"; spec_of ~arrival:2 t "eh" ])
      tspecs
  in
  let cfg =
    {
      Srv.Scheduler.default_config with
      Srv.Scheduler.capacity = Some 600;
      max_live = 3;
    }
  in
  (tspecs, Srv.Scheduler.run ~tenants:3 cfg specs)

let test_determinism () =
  let _, o1 = serve_outcome 23L in
  let _, o2 = serve_outcome 23L in
  Alcotest.(check bool) "reports byte-identical" true
    (o1.Srv.Scheduler.report = o2.Srv.Scheduler.report);
  Alcotest.(check bool) "aggregate stats byte-identical" true
    (o1.Srv.Scheduler.agg_stats = o2.Srv.Scheduler.agg_stats)

(* --- session-tagged traces --------------------------------------------- *)

(* A shared sink records the interleaved stream; the footer aggregates
   every incarnation, so replay must reconstruct it exactly. *)
let test_serve_trace_replay () =
  let tspecs = Srv.Tenants.derive ~noisy:[ 1 ] ~seed:29L ~tenants:2 () in
  let specs = List.map (fun t -> spec_of t "eh") tspecs in
  let sink = Obs.Trace.create () in
  let cfg =
    { Srv.Scheduler.default_config with Srv.Scheduler.capacity = Some 500 }
  in
  let o = Srv.Scheduler.run ~sink ~tenants:2 cfg specs in
  let text =
    Obs.Trace.to_jsonl ~mechanism:"eh" ~bench:"serve" ~scale:1.0
      ~stats:o.Srv.Scheduler.agg_stats sink
  in
  match Obs.Trace.of_jsonl text with
  | Error e -> Alcotest.failf "serve trace does not parse: %s" e
  | Ok f ->
    (* at least two distinct session tags made it into the stream *)
    let tags =
      List.sort_uniq compare
        (List.filter_map (fun r -> r.Obs.Trace.sid) f.Obs.Trace.events)
    in
    Alcotest.(check bool) "multiple sessions tagged" true (List.length tags >= 2);
    (match Obs.Trace.replay f with
    | Ok stats ->
      Alcotest.(check bool) "replay reconstructs aggregate stats" true
        (stats = o.Srv.Scheduler.agg_stats)
    | Error e -> Alcotest.failf "serve trace replay failed: %s" e)

(* --- shared-cache eviction accounting ------------------------------------ *)

(* Every shared-cache eviction goes through one runtime's evict_block,
   so the five places that count evictions must agree: the sessions'
   statistics, the report, the aggregate, the trace and the per-tenant
   tallies. *)
let test_eviction_accounting () =
  let tspecs = Srv.Tenants.derive ~noisy:[ 1 ] ~seed:31L ~tenants:3 () in
  let specs =
    List.concat_map (fun t -> [ spec_of t "eh"; spec_of ~arrival:1 t "eh" ]) tspecs
  in
  let sink = Obs.Trace.create () in
  let cfg =
    { Srv.Scheduler.default_config with Srv.Scheduler.capacity = Some 120 }
  in
  let o = Srv.Scheduler.run ~sink ~tenants:3 cfg specs in
  let r = o.Srv.Scheduler.report in
  let sessions =
    List.fold_left
      (fun n (s : Srv.Scheduler.session_report) ->
        n + s.Srv.Scheduler.stats.Bt.Run_stats.evictions)
      0 r.Srv.Scheduler.sessions
  in
  let traced =
    List.length
      (List.filter
         (fun (rc : Obs.Trace.record) ->
           match rc.Obs.Trace.ev with Bt.Runtime.Ev_evict _ -> true | _ -> false)
         (Obs.Trace.records sink))
  in
  let suffered =
    List.fold_left
      (fun n (t : Srv.Scheduler.tenant_report) -> n + t.Srv.Scheduler.evictions_suffered)
      0 r.Srv.Scheduler.tenants
  in
  Alcotest.(check bool) "the bound evicts" true (sessions > 0);
  Alcotest.(check int) "report = sessions" sessions r.Srv.Scheduler.evictions;
  Alcotest.(check int) "aggregate = sessions" sessions
    o.Srv.Scheduler.agg_stats.Bt.Run_stats.evictions;
  Alcotest.(check int) "Ev_evict records = sessions" sessions traced;
  Alcotest.(check int) "evictions suffered = sessions" sessions suffered

(* --- eviction fairness (qcheck) ---------------------------------------- *)

(* Fabricate a shared cache holding blocks for two tenants with equal
   quotas, then apply arbitrary eviction pressure from one tenant
   through the scheduler's enforcement. Invariant: the victimized
   neighbour's live occupancy never drops below its guaranteed share
   (capacity / 2) — or below where it already was, if it started
   under-share. *)
let prop_eviction_fairness =
  QCheck.Test.make ~name:"shared-cache eviction fairness" ~count:200
    QCheck.(
      triple (int_range 2 40)
        (list_of_size Gen.(int_range 1 12) (pair (int_range 1 20) (int_range 0 1000)))
        (list_of_size Gen.(int_range 1 12) (pair (int_range 1 20) (int_range 0 1000))))
    (fun (cap_blocks, blocks0, blocks1) ->
      let capacity = cap_blocks * 10 in
      let rt =
        Bt.Runtime.create ~mem:(Mda_machine.Memory.create ~size_bytes:4096) ()
      in
      let cache = rt.Bt.Runtime.cache in
      let tenant_live tid =
        let sum = ref 0 in
        Bt.Code_cache.iter_blocks cache (fun b ->
            if Srv.Tenants.owner_of b.Bt.Code_cache.start = tid then
              sum := !sum + Bt.Code_cache.block_live_insns b);
        !sum
      in
      let add tid i (size, tick) =
        let start = Srv.Tenants.base_of tid + (i * 8) in
        let b = Bt.Code_cache.block cache start in
        let pc =
          Bt.Code_cache.emit cache
            (List.init size (fun _ -> H.Monitor (H.Next_guest start)))
        in
        b.Bt.Code_cache.entry <- Some pc;
        b.Bt.Code_cache.host_range <- Some (pc, pc + size);
        b.Bt.Code_cache.last_used <- tick
      in
      List.iteri (add 0) blocks0;
      List.iteri (add 1) blocks1;
      let live1_before = tenant_live 1 in
      let share = capacity / 2 in
      (* tenant 0 is the pressuring tenant *)
      ignore (Srv.Scheduler.enforce ~tenants:2 ~capacity ~for_tenant:0 rt);
      let live0_after = tenant_live 0 in
      let live1_after = tenant_live 1 in
      (* every remaining neighbour block is protected: evicting it
         would breach the share *)
      let neighbour_protected () =
        let ok = ref true in
        Bt.Code_cache.iter_blocks cache (fun b ->
            if
              b.Bt.Code_cache.entry <> None
              && Srv.Tenants.owner_of b.Bt.Code_cache.start = 1
              && live1_after - Bt.Code_cache.block_live_insns b >= share
            then ok := false);
        !ok
      in
      (* the neighbour keeps its guaranteed share *)
      live1_after >= min live1_before share
      (* and enforcement only ever stops over capacity when no eligible
         victim remains: the pressuring tenant fully evicted and every
         surviving neighbour block protected by the share guarantee *)
      && (Bt.Code_cache.live_insns cache <= capacity
         || (live0_after = 0 && neighbour_protected ())))

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_eviction_fairness ]

let suite =
  [ ( "server",
      [
      Alcotest.test_case "step-resumable sessions match whole runs" `Slow
        test_session_equiv;
      Alcotest.test_case "admission control" `Quick test_admission;
      Alcotest.test_case "supervisor restarts" `Quick test_supervisor_restart;
      Alcotest.test_case "supervisor gives up within caps" `Quick
        test_supervisor_gives_up;
      Alcotest.test_case "a wild store faults only its session" `Quick
        test_wild_store_is_contained;
      Alcotest.test_case "trap-storm demotion" `Quick test_storm_demotion;
      Alcotest.test_case "serve determinism" `Quick test_determinism;
      Alcotest.test_case "session-tagged trace replay" `Quick
        test_serve_trace_replay;
      Alcotest.test_case "shared-cache eviction accounting" `Quick
        test_eviction_accounting;
      ]
      @ qcheck_cases ) ]
