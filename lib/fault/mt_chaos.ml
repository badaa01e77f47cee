module Bt = Mda_bt
module Obs = Mda_obs
module Srv = Mda_server

let mechanism_names =
  List.filter (fun m -> m <> "aot") Chaos.mechanism_names

type outcome = {
  plan : Mt_plan.t;
  mech : string;
  ok : bool;
  problems : string list;
  sessions : int;
  demotions : int;
  restarts : int;
  evictions : int;
  traps : int;
}

(* Mechanisms whose storm-tenant trap storms are analytically certain:
   an Input_dep site trains aligned and runs misaligned (trap per
   execution under static profiling), and under pure EH the storm
   tenant's patches are always refused without ever self-degrading, so
   it re-traps on every misaligned execution until the tenant is
   demoted. (Dynamic profiling — dp, dpeh — observes the misalignments
   during phase-1 interpretation of the same input and emits protected
   sequences up front, so those mechanisms see no storm to contain.) *)
let storm_certain = [ "static-profiling"; "eh" ]

let scheduler_specs (plan : Mt_plan.t) tspecs mech =
  let mechanisms =
    List.map (fun ts -> Srv.Tenants.mechanism_of ts mech) tspecs
  in
  let config_of tid =
    let base = Bt.Runtime.default_config (List.nth mechanisms tid) in
    if plan.Mt_plan.storm = Some tid then
      { base with
        Bt.Runtime.faults =
          { Bt.Runtime.no_faults with
            Bt.Runtime.patch_refuse = Some (fun ~guest_addr:_ ~attempt:_ -> true);
            degrade_after = max_int } }
    else base
  in
  let entries = List.map (fun ts -> fst (Srv.Tenants.fresh_mem ts)) tspecs in
  List.map
    (fun (s : Mt_plan.session) ->
      let ts = List.nth tspecs s.Mt_plan.s_tid in
      { Srv.Scheduler.tid = s.Mt_plan.s_tid;
        arrival = s.Mt_plan.s_arrival;
        entry = List.nth entries s.Mt_plan.s_tid;
        fresh_mem = (fun () -> snd (Srv.Tenants.fresh_mem ts));
        config = config_of s.Mt_plan.s_tid;
        crash_at = s.Mt_plan.s_crash_at;
        first_fuel = s.Mt_plan.s_first_fuel })
    plan.Mt_plan.sessions

let check (plan : Mt_plan.t) ~mech =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let tspecs = Mt_plan.tenant_specs plan in
  let cfg = Mt_plan.scheduler_config plan in
  let specs = scheduler_specs plan tspecs mech in
  let sink = Obs.Trace.create () in
  let o = Srv.Scheduler.run ~sink ~tenants:plan.Mt_plan.tenants cfg specs in
  let r = o.Srv.Scheduler.report in
  (* admission: plans size their queue so nothing is ever dropped *)
  if r.Srv.Scheduler.admission_rejects <> 0 then
    problem "admission: %d sessions rejected (plan queues are sized to defer)"
      r.Srv.Scheduler.admission_rejects;
  (* every session halts with its tenant's oracle state *)
  let oracles = Hashtbl.create 4 in
  let oracle_of tid =
    match Hashtbl.find_opt oracles tid with
    | Some st -> st
    | None ->
      let st = Oracle.interpret (Srv.Tenants.fresh_mem (List.nth tspecs tid)) in
      Hashtbl.add oracles tid st;
      st
  in
  List.iter
    (fun (s : Srv.Scheduler.session_report) ->
      (match s.Srv.Scheduler.status with
      | Some Srv.Session.Halted -> ()
      | Some st ->
        problem "session %d ended %s, not halted" s.Srv.Scheduler.sid
          (match st with
          | Srv.Session.Faulted f -> Srv.Session.fault_to_string f
          | Srv.Session.Running -> "running"
          | Srv.Session.Degraded -> "degraded"
          | Srv.Session.Halted -> "halted")
      | None -> problem "session %d never ran" s.Srv.Scheduler.sid);
      if s.Srv.Scheduler.restarts > plan.Mt_plan.max_restarts then
        problem "session %d restarted %d times (budget %d)" s.Srv.Scheduler.sid
          s.Srv.Scheduler.restarts plan.Mt_plan.max_restarts)
    r.Srv.Scheduler.sessions;
  List.iteri
    (fun sid final ->
      match final with
      | None -> () (* already reported as never-ran *)
      | Some sess ->
        if sess.Srv.Session.status = Srv.Session.Halted then
          let cpu = sess.Srv.Session.rt.Bt.Runtime.cpu in
          if not (Oracle.state_eq (oracle_of sess.Srv.Session.tid) (Oracle.state cpu)) then
            problem "session %d (tenant %d) diverged from the oracle" sid
              sess.Srv.Session.tid)
    o.Srv.Scheduler.finals;
  (* supervision bounds *)
  if r.Srv.Scheduler.max_backoff_used > plan.Mt_plan.backoff_cap then
    problem "backoff %d exceeds cap %d" r.Srv.Scheduler.max_backoff_used
      plan.Mt_plan.backoff_cap;
  (* storm containment *)
  List.iter
    (fun (tr : Srv.Scheduler.tenant_report) ->
      if tr.Srv.Scheduler.demoted && plan.Mt_plan.storm <> Some tr.Srv.Scheduler.t_tid
      then
        problem "tenant %d demoted but the plan's storm tenant is %s"
          tr.Srv.Scheduler.t_tid
          (match plan.Mt_plan.storm with
          | None -> "absent"
          | Some s -> "t" ^ string_of_int s))
    r.Srv.Scheduler.tenants;
  (match plan.Mt_plan.storm with
  | Some storm_tid when List.mem mech storm_certain ->
    let tr = List.nth r.Srv.Scheduler.tenants storm_tid in
    if not tr.Srv.Scheduler.demoted then
      problem "storm tenant t%d not demoted under %s (traps %Ld <= %d?)" storm_tid
        mech tr.Srv.Scheduler.t_traps plan.Mt_plan.storm_traps;
    (* neighbour throughput: at most 10% slower than running alone.
       One-sided on purpose: a deferred session can start after a
       sibling already translated and patched their shared blocks,
       making the shared run *faster* than the isolated baseline —
       reuse, not starvation. *)
    List.iter
      (fun (ntr : Srv.Scheduler.tenant_report) ->
        let tid = ntr.Srv.Scheduler.t_tid in
        if tid <> storm_tid && ntr.Srv.Scheduler.submissions > 0 then begin
          let shared_cy = ntr.Srv.Scheduler.t_cycles in
          let iso_cy =
            Srv.Scheduler.isolated_cycles ~tenants:plan.Mt_plan.tenants cfg specs tid
          in
          let slowdown = Int64.sub shared_cy iso_cy in
          if Int64.compare (Int64.mul 10L slowdown) iso_cy > 0 then
            problem
              "neighbour t%d starved: %Ld cycles shared vs %Ld isolated"
              tid shared_cy iso_cy
        end)
      r.Srv.Scheduler.tenants
  | _ -> ());
  (* the session-tagged trace replays to the aggregate statistics *)
  Option.iter (problem "serve %s")
    (Oracle.replay_problem ~mechanism:mech ~bench:"chaos-serve"
       ~stats:o.Srv.Scheduler.agg_stats sink);
  let problems = List.rev !problems in
  {
    plan;
    mech;
    ok = problems = [];
    problems;
    sessions = List.length r.Srv.Scheduler.sessions;
    demotions = r.Srv.Scheduler.demotions;
    restarts = r.Srv.Scheduler.restarts;
    evictions = r.Srv.Scheduler.evictions;
    traps = Int64.to_int o.Srv.Scheduler.agg_stats.Bt.Run_stats.traps;
  }

let run ?(jobs = 1) ?(mechs = mechanism_names) ~seed ~plans () =
  Oracle.sweep ~jobs ~mechs ~seed ~plans ~draw:Mt_plan.random ~check
    ~worker_failed:(fun plan mech problem ->
      { plan; mech; ok = false; problems = [ problem ]; sessions = 0; demotions = 0;
        restarts = 0; evictions = 0; traps = 0 })
