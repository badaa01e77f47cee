(* Chaos runner: every mechanism under every fault plan, checked against
   the pure-interpreter oracle.

   The design mirrors the differential test suite — same check core
   ({!Oracle}), same per-mechanism preparation ({!Mda_mech.Mech_spec}) —
   but swaps QCheck's random
   workloads for {!Plan}'s seeded scenarios, adds the injected-fault
   knobs, and layers on the invariants that only matter under faults:
   post-eviction selfcheck, degradation finality, and exact trace
   replay. *)

module W = Mda_workloads
module Bt = Mda_bt
module A = Mda_analysis
module Obs = Mda_obs
module H = Mda_harness
module Spec = Mda_mech.Mech_spec

type outcome = {
  plan : Plan.t;
  mech : string;
  ok : bool;
  problems : string list;
  evictions : int;
  patch_faults : int;
  degraded : int;
  traps : int;
  translations : int;
}

let mechanism_names =
  [ "direct"; "static-profiling"; "dynamic-profiling"; "eh"; "dpeh"; "sa"; "aot" ]

(* --- subjects ------------------------------------------------------------ *)

(* What a chaos cell runs: either a plan's generated workload groups or
   a hand-written [.asm] program, as a preparation subject. *)
let subject_of_groups ~name groups =
  let load input () = W.Gen.load (W.Gen.build ~input groups) in
  { Spec.name; image = load W.Gen.Ref; train = load W.Gen.Train }

(* A [.asm] file has no Train input: the profiling run uses the same
   program (its data init is part of the source). *)
let subject_of_program path = H.Cell.subject ~scale:1.0 ~input:W.Gen.Ref path

(* --- the per-cell invariants ------------------------------------------- *)

(* Degradation is final: once [Ev_degrade] fires for a site, every later
   hardware trap there must be served by OS-style fixup ([Ev_os_fixup]),
   never re-enter the patching path ([Ev_trap]). *)
let degradation_final records =
  let degraded = Hashtbl.create 8 in
  List.filter_map
    (fun r ->
      match r.Obs.Trace.ev with
      | Bt.Runtime.Ev_degrade { guest_addr; _ } ->
        Hashtbl.replace degraded guest_addr ();
        None
      | Bt.Runtime.Ev_trap { guest_addr; _ } when Hashtbl.mem degraded guest_addr ->
        Some (Printf.sprintf "Ev_trap at degraded site 0x%x" guest_addr)
      | _ -> None)
    records

(* One cell: prepare the mechanism exactly as the harness does (static
   profiling trains on the Train input, static analysis and AOT run the
   congruence dataflow on the binary), run the subject under the plan's
   faults, and check it.

   AOT cells execute an immutable pre-populated cache, which adds two
   assertions. A plan that bounds the cache capacity must be rejected
   *up front*: eviction from an AOT cache could never be repaired
   (nothing retranslates), so {!Bt.Runtime.create} must refuse the
   combination — and the cell's check is exactly that the refusal
   happens, instead of running the plan. And an unbounded run must
   neither translate nor patch; the remaining fault knobs (patch
   budget, refusals) are vacuous by construction, since an AOT
   mechanism never patches. *)
let check ?program plan ~mech =
  let spec =
    match Spec.parse_stress mech with
    | Ok s -> s
    | Error _ -> invalid_arg ("Chaos.check: unknown mechanism " ^ mech)
  in
  let bench = Printf.sprintf "chaos-%d" plan.Plan.id in
  let subject =
    match program with
    | Some p -> subject_of_program p
    | None -> subject_of_groups ~name:bench (Plan.groups plan)
  in
  let aot = match spec with Spec.Aot _ -> true | _ -> false in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let stats =
    match Spec.prepare subject spec with
    | exception Bt.Runtime.Runtime_error e ->
      fail "%s" e;
      None
    | prepared -> (
      let sink = Obs.Trace.create () in
      let config =
        { (Bt.Runtime.default_config prepared.Spec.mechanism) with
          flush_policy = plan.Plan.flush_policy;
          faults = Plan.faults plan;
          on_event = Some (Obs.Trace.hook sink) }
      in
      let cache = Option.map fst prepared.Spec.aot in
      let entry, mem = subject.Spec.image () in
      match Bt.Runtime.create ~config ?cache ~mem () with
      | exception Invalid_argument _ when aot && plan.Plan.cache_capacity <> None ->
        None (* the required rejection *)
      | (_ : Bt.Runtime.t) when aot && plan.Plan.cache_capacity <> None ->
        fail "bounded-capacity fault was accepted on the immutable AOT cache";
        None
      | rt ->
        Obs.Trace.attach sink rt;
        let stats = Bt.Runtime.run rt ~entry in
        let expected = Oracle.interpret (subject.Spec.image ()) in
        if not (Oracle.state_eq expected (Oracle.state rt.Bt.Runtime.cpu)) then
          fail "guest state diverged from the pure-interpreter oracle";
        if stats.Bt.Run_stats.stop <> Bt.Run_stats.Halted then
          fail "run did not halt (%s)"
            (Bt.Run_stats.stop_reason_to_string stats.Bt.Run_stats.stop);
        if aot && (stats.Bt.Run_stats.translations <> 0 || stats.Bt.Run_stats.patches <> 0)
        then
          fail "immutable AOT cache was written at runtime (%d translations, %d patches)"
            stats.Bt.Run_stats.translations stats.Bt.Run_stats.patches;
        Option.iter (fail "%s")
          (Oracle.selfcheck_problem
             (A.Check.run ?capacity:plan.Plan.cache_capacity rt.Bt.Runtime.cache));
        List.iter (fail "degradation not final: %s")
          (degradation_final (Obs.Trace.records sink));
        Option.iter (fail "%s") (Oracle.replay_problem ~mechanism:mech ~bench ~stats sink);
        Some stats)
  in
  let problems = List.rev !problems in
  let count f = match stats with Some s -> f s | None -> 0 in
  { plan;
    mech;
    ok = problems = [];
    problems;
    evictions = count (fun s -> s.Bt.Run_stats.evictions);
    patch_faults = count (fun s -> s.Bt.Run_stats.patch_faults);
    degraded = count (fun s -> s.Bt.Run_stats.degraded);
    traps = count (fun s -> Int64.to_int s.Bt.Run_stats.traps);
    translations = count (fun s -> s.Bt.Run_stats.translations) }

(* --- harness faults ----------------------------------------------------- *)

(* A self-inflicted worker death (SIGKILL'd pool worker) must be
   contained: the in-flight item reports an error, siblings complete. *)
let pool_kill_check () =
  let f i = if i = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill; i * i in
  let results = H.Pool.map ~jobs:2 ~f [ 0; 1; 2; 3; 4; 5 ] in
  let ok = ref true in
  let detail = Buffer.create 64 in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error _ -> ()
      | 2, Ok _ ->
        ok := false;
        Buffer.add_string detail "killed item reported Ok; "
      | _, Ok v when v = i * i -> ()
      | _, Ok _ ->
        ok := false;
        Buffer.add_string detail (Printf.sprintf "item %d wrong value; " i)
      | _, Error e ->
        ok := false;
        Buffer.add_string detail (Printf.sprintf "sibling %d poisoned (%s); " i e))
    results;
  (!ok, if !ok then "killed worker contained, siblings unaffected" else Buffer.contents detail)

let dummy_stats =
  { Bt.Run_stats.mechanism = "chaos-probe";
    stop = Bt.Run_stats.Halted;
    cycles = 12345L;
    guest_insns = 100L;
    interp_insns = 50L;
    host_insns = 200L;
    memrefs = 40L;
    mdas = 7L;
    traps = 3L;
    patches = 2;
    translations = 4;
    retranslations = 1;
    rearrangements = 1;
    chains = 2;
    evictions = 1;
    patch_faults = 1;
    degraded = 1;
    blocks = 4;
    code_len = 64;
    icache_misses = 5;
    dcache_misses = 6 }

(* A garbled cache entry must degrade to a miss (no exception, no torn
   result), and a re-store must heal it. *)
let cache_garble_check () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdabench_chaos_%d" (Unix.getpid ()))
  in
  let cache = H.Result_cache.create ~dir () in
  let cell = H.Cell.mech ~scale:1.0 H.Cell.Direct "chaos-probe" in
  let result = { H.Cell.stats = dummy_stats; sites = [||] } in
  H.Result_cache.store cache cell result;
  let path = H.Result_cache.path cache cell in
  let cleanup () =
    (try Sys.remove path with Sys_error _ -> ());
    (try Sys.remove (Filename.concat dir ".lock") with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  if H.Result_cache.find cache cell = None then (false, "stored entry did not read back")
  else begin
    (* garble: overwrite the middle of the entry with junk *)
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    ignore (Unix.lseek fd 16 Unix.SEEK_SET);
    ignore (Unix.write_substring fd "\x00garbage\x00" 0 9);
    Unix.close fd;
    match H.Result_cache.find cache cell with
    | Some _ -> (false, "garbled entry served as a hit")
    | None ->
      H.Result_cache.store cache cell result;
      (match H.Result_cache.find cache cell with
      | Some r when r = result -> (true, "garbled entry missed, re-store healed it")
      | Some _ -> (false, "healed entry differs from the stored result")
      | None -> (false, "re-store after garbling did not take"))
  end

let harness_faults () =
  [ ("pool worker killed mid-item", pool_kill_check ());
    ("garbled result-cache entry", cache_garble_check ()) ]

(* --- the sweep ---------------------------------------------------------- *)

let run ?(jobs = 1) ?(mechs = mechanism_names) ?program ~seed ~plans () =
  Oracle.sweep ~jobs ~mechs ~seed ~plans ~draw:Plan.random ~check:(check ?program)
    ~worker_failed:(fun plan mech problem ->
      { plan; mech; ok = false; problems = [ problem ]; evictions = 0; patch_faults = 0;
        degraded = 0; traps = 0; translations = 0 })
