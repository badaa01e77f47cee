(* serve-mix: one Scheduler.run over 8 tenants x 8 sessions under EH,
   tenant 1 noisy and tenant 3 a trap storm, on a bounded shared cache.
   Sessions are short and mostly interpreted and every incarnation
   re-images 8 MiB of guest memory, so the scheduler, the interpreter
   and session set-up dominate, not the simulated CPU. The tenants'
   programs are fixed (derived from [tenant_seed]); the run's seed draws
   the traffic: when each session arrives, and which quarter of them
   crash. Tenant programs drawn per seed would differ in size by tens of
   percent, which would swamp the run-to-run comparison. *)

module Bt = Mda_bt
module Srv = Mda_server
module Rng = Mda_util.Rng

let name = "serve-mix"

let tenants = 8

let per_tenant = 8

let noisy = [ 1 ]

let storm = 3

(* The serve command's default seed. *)
let tenant_seed = 42L

(* Small enough that the noisy tenant's code footprint forces
   evictions. *)
let capacity = 300

(* Early enough that every injected crash lands, so every seed re-images
   the same number of incarnations (a crash drawn from steps 1-4 misses
   a session that halts sooner, and the restart count then varies by
   seed). *)
let crash_step = 2

let layers =
  let d name unit better = { Schema.name; unit; better } in
  [ d "server.ns_per_dispatch" "ns" Schema.Lower;
    d "server.hit_share" "%" Schema.Higher;
    d "server.image_share" "%" Schema.Lower;
    d "server.evictions" "count" Schema.Lower;
    d "server.restarts" "count" Schema.Lower;
    d "server.demotions" "count" Schema.Lower;
    Bench.overhead_decl name ]

type env = {
  tspecs : Srv.Tenants.spec list;
  specs : Srv.Scheduler.spec list;
  cfg : Srv.Scheduler.config;
}

(* [image] wraps every re-imaging of guest memory (the traced run
   times it). The storm tenant's patches are always refused, as in the
   multi-tenant chaos battery, so its traps go to OS fixup until the
   scheduler demotes it. *)
let setup ?(image = fun f -> f ()) seed =
  let tspecs =
    Srv.Tenants.derive ~noisy ~storm:[ storm ] ~seed:tenant_seed ~tenants ()
  in
  let rng = Rng.create (Int64.of_int seed) in
  let specs =
    List.concat_map
      (fun (ts : Srv.Tenants.spec) ->
        let tid = ts.Srv.Tenants.tid in
        let entry, _ = Srv.Tenants.fresh_mem ts in
        let base = Bt.Runtime.default_config (Srv.Tenants.mechanism_of ts "eh") in
        let config =
          if tid <> storm then base
          else
            { base with
              Bt.Runtime.faults =
                { Bt.Runtime.no_faults with
                  Bt.Runtime.patch_refuse = Some (fun ~guest_addr:_ ~attempt:_ -> true);
                  degrade_after = max_int } }
        in
        let crash_slot = Rng.int rng 4 in
        List.init per_tenant (fun k ->
            { Srv.Scheduler.tid;
              arrival = Rng.int_in rng 0 (2 * per_tenant);
              entry;
              fresh_mem = (fun () -> image (fun () -> snd (Srv.Tenants.fresh_mem ts)));
              config;
              crash_at = (if k mod 4 = crash_slot then Some crash_step else None);
              first_fuel = None }))
      tspecs
  in
  let cfg =
    { Srv.Scheduler.default_config with
      Srv.Scheduler.capacity = Some capacity;
      max_live = 4;
      queue_limit = List.length specs }
  in
  { tspecs; specs; cfg }

let run env = Srv.Scheduler.run ~tenants env.cfg env.specs

(* Checks on one run's outcome: every admitted session halts with its
   tenant's oracle state, and the report equals the first run's.
   Returns the number of sessions that completed. *)
let check env checks oracles (first : Srv.Scheduler.report option ref) (o : Srv.Scheduler.outcome)
    =
  let oracle tid =
    match Hashtbl.find_opt oracles tid with
    | Some st -> st
    | None ->
      let entry, mem = Srv.Tenants.fresh_mem (List.nth env.tspecs tid) in
      let st = snd (Oracle.run ~mem ~entry) in
      Hashtbl.add oracles tid st;
      st
  in
  let completed = ref 0 in
  List.iter2
    (fun (r : Srv.Scheduler.session_report) final ->
      if r.Srv.Scheduler.decision <> Srv.Scheduler.Rejected then begin
        let ok =
          match final with
          | Some (s : Srv.Session.t) when s.Srv.Session.status = Srv.Session.Halted ->
            Oracle.matches (oracle s.Srv.Session.tid) s.Srv.Session.rt.Bt.Runtime.cpu
          | _ -> false
        in
        if ok then incr completed;
        Bench.check checks ok
          (lazy
            (Printf.sprintf "session %d (tenant %d) did not halt with its oracle state"
               r.Srv.Scheduler.sid r.Srv.Scheduler.s_tid))
      end)
    o.Srv.Scheduler.report.Srv.Scheduler.sessions o.Srv.Scheduler.finals;
  (match !first with
  | None -> first := Some o.Srv.Scheduler.report
  | Some r ->
    Bench.check checks (r = o.Srv.Scheduler.report)
      (lazy "scheduler report differs between repetitions"));
  !completed

(* One timed run; the checks run outside the timing. [span] wraps the
   run in the traced pass. *)
let timed_round ?(span = fun f -> f ()) env checks oracles first () =
  let o, s = Measure.timed (fun () -> span (fun () -> run env)) in
  ignore (check env checks oracles first o);
  [| s |]

let measure (ctx : Bench.ctx) checks =
  let env, setup = Measure.setups 25 (fun () -> setup ctx.Bench.seed) in
  let oracles = Hashtbl.create tenants and first = ref None in
  let completed = ref 0 in
  let warmup () = completed := check env checks oracles first (run env) in
  let rounds =
    Measure.rounds ~warmup ~seconds:ctx.seconds (timed_round env checks oracles first)
  in
  { Bench.setup; rounds; ops_per_s = Measure.rate !completed rounds.Measure.wall }

let trace (ctx : Bench.ctx) checks =
  let env = setup ctx.Bench.seed in
  let oracles = Hashtbl.create tenants and first = ref None in
  let o = run env in
  ignore (check env checks oracles first o);
  let r = o.Srv.Scheduler.report in
  let sum f = List.fold_left (fun a s -> a + f s) 0 r.Srv.Scheduler.sessions in
  let dispatches = sum (fun s -> s.Srv.Scheduler.dispatches) in
  let hits = sum (fun s -> s.Srv.Scheduler.hits) in
  let spans = Spans.create () in
  let traced_env = setup ~image:(Spans.within spans "server.image") ctx.Bench.seed in
  let untraced, traced =
    Measure.interleaved 9
      (timed_round env checks oracles first)
      (timed_round ~span:(Spans.within spans "server.run") traced_env checks oracles first)
  in
  let self = Spans.self_times spans in
  let self_of n = try List.assoc n self with Not_found -> 0. in
  let image = self_of "server.image" in
  let count n = Measure.single (float_of_int n) in
  [ ( "server.ns_per_dispatch",
      Measure.single (1e9 *. untraced.Measure.median /. float_of_int dispatches) );
    ("server.hit_share", Measure.single (100. *. float_of_int hits /. float_of_int dispatches));
    ("server.image_share", Measure.single (100. *. image /. (image +. self_of "server.run")));
    ("server.evictions", count r.Srv.Scheduler.evictions);
    ("server.restarts", count r.Srv.Scheduler.restarts);
    ("server.demotions", count r.Srv.Scheduler.demotions);
    ( Bench.trace_overhead name,
      Bench.overhead_pct ~traced:traced.Measure.median ~untraced:untraced.Measure.median ) ]

let workload = { Bench.name; layers; measure; trace }
