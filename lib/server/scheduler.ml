module Bt = Mda_bt
module Machine = Mda_machine
module Obs = Mda_obs

type decision = Admitted | Deferred | Rejected

let decision_to_string = function
  | Admitted -> "admitted"
  | Deferred -> "deferred"
  | Rejected -> "rejected"

type config = {
  capacity : int option;
  max_live : int;
  queue_limit : int;
  slice_fuel : int;
  translation_quota : int option;
  storm_window : int;
  storm_traps : int;
  backoff_cap : int;
  max_restarts : int;
}

let default_config =
  {
    capacity = None;
    max_live = 8;
    queue_limit = 64;
    slice_fuel = 32;
    translation_quota = None;
    storm_window = 8;
    storm_traps = 64;
    backoff_cap = 8;
    max_restarts = 3;
  }

type spec = {
  tid : int;
  arrival : int;
  entry : int;
  fresh_mem : unit -> Machine.Memory.t;
  config : Bt.Runtime.config;
  crash_at : int option;
  first_fuel : int option;
}

type session_report = {
  sid : int;
  s_tid : int;
  decision : decision;
  status : Session.status option;
  restarts : int;
  dispatches : int;
  hits : int;
  stats : Bt.Run_stats.t;
}

type tenant_report = {
  t_tid : int;
  submissions : int;
  demoted : bool;
  t_stats : Bt.Run_stats.t;
  evictions_suffered : int;
  t_dispatches : int;
  t_hits : int;
  t_restarts : int;
  rejected : int;
  deferred : int;
}

type report = {
  rounds : int;
  sessions : session_report list;
  tenants : tenant_report list;
  restarts : int;
  demotions : int;
  admission_rejects : int;
  admission_defers : int;
  evictions : int;
  p99_trap_cycles : int64;
  max_backoff_used : int;
  cache_live_insns : int;
  cache_blocks : int;
}

type outcome = {
  report : report;
  finals : Session.t option list;
  counters : Bt.Counters.t;
  agg_stats : Bt.Run_stats.t;
}

type state = Waiting | Queued | Live | Backoff | Done

type managed = {
  m_spec : spec;
  m_sid : int;
  (* every ended incarnation's statistics, summed *)
  mutable m_stats : Bt.Run_stats.t;
  mutable m_dispatches : int;
  mutable m_hits : int;
  mutable m_sess : Session.t option;
  mutable m_state : state;
  mutable m_restarts : int;
  mutable next_start : int;  (* round a Backoff session becomes due *)
  mutable m_decision : decision option;
  mutable m_final : Session.status option;
  mutable crash_pending : int option;
}

type tstate = {
  ts_tid : int;
  mutable demoted : bool;
  mutable window : (int * int) list;  (* (round, traps), newest first *)
  mutable round_translations : int;
  mutable evicted : int;  (* this tenant's blocks evicted *)
}

let no_stats = Bt.Run_stats.zero ~mechanism:"" ~stop:Bt.Run_stats.Halted

(* Fold an ended (or, at the very end of the run, still-live)
   incarnation into the session's running totals. *)
let absorb m (s : Session.t) =
  m.m_stats <- Bt.Run_stats.add m.m_stats (Session.stats s);
  m.m_dispatches <- m.m_dispatches + s.Session.dispatches;
  m.m_hits <- m.m_hits + s.Session.hits

let validate cfg specs ~tenants =
  (match cfg.capacity with
  | Some c when c < 1 -> invalid_arg "Scheduler: capacity must be >= 1"
  | _ -> ());
  if cfg.max_live < 1 then invalid_arg "Scheduler: max_live must be >= 1";
  if cfg.queue_limit < 0 then invalid_arg "Scheduler: queue_limit must be >= 0";
  if cfg.slice_fuel < 1 then invalid_arg "Scheduler: slice_fuel must be >= 1";
  if cfg.storm_window < 1 then invalid_arg "Scheduler: storm_window must be >= 1";
  if cfg.storm_traps < 1 then invalid_arg "Scheduler: storm_traps must be >= 1";
  if cfg.backoff_cap < 1 then invalid_arg "Scheduler: backoff_cap must be >= 1";
  if cfg.max_restarts < 0 then invalid_arg "Scheduler: max_restarts must be >= 0";
  List.iter
    (fun s ->
      if s.tid < 0 || s.tid >= tenants then
        invalid_arg "Scheduler: spec tid out of range";
      if s.arrival < 0 || s.arrival > 100_000 then
        invalid_arg "Scheduler: spec arrival out of range")
    specs

(* p99 of the per-trap cycle-cost proxy, deterministic integer math:
   sort ascending, index ceil(0.99 n) - 1. *)
let p99 samples =
  match samples with
  | [] -> 0L
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    a.((((99 * n) + 99) / 100) - 1)

let enforce ~tenants ~capacity ~for_tenant (rt : Bt.Runtime.t) =
  let cache = rt.Bt.Runtime.cache in
  if Bt.Code_cache.live_insns cache <= capacity then []
  else begin
    let share = capacity / tenants in
    let owner (b : Bt.Code_cache.block_rec) = Tenants.owner_of b.start in
    let in_range o = o >= 0 && o < tenants in
    (* live occupancy per tenant, maintained across the eviction loop *)
    let live = Array.make tenants 0 in
    Bt.Code_cache.iter_blocks cache (fun b ->
        let o = owner b in
        if in_range o then live.(o) <- live.(o) + Bt.Code_cache.block_live_insns b);
    (* the pressuring tenant's own blocks always, a neighbour's only if
       evicting it leaves that neighbour at or above its guaranteed
       share — eviction is block-granular, so the post-state is what
       the guarantee is about *)
    let eligible b =
      let o = owner b in
      o = for_tenant || (not (in_range o))
      || live.(o) - Bt.Code_cache.block_live_insns b >= share
    in
    let rec go victims =
      if Bt.Code_cache.live_insns cache <= capacity then List.rev victims
      else
        match Bt.Code_cache.lru_victim cache ~eligible with
        | Some b ->
          let o = owner b in
          if in_range o then live.(o) <- live.(o) - Bt.Code_cache.block_live_insns b;
          Bt.Runtime.evict_block rt b;
          go (o :: victims)
        | None ->
          (* every remaining block is some under-share neighbour's:
             overshoot rather than break the fairness guarantee *)
          List.rev victims
    in
    go []
  end

let run ?sink ?tenants:(ntenants = 0) cfg specs =
  let ntenants =
    if ntenants > 0 then ntenants
    else 1 + List.fold_left (fun m s -> max m s.tid) 0 specs
  in
  validate cfg specs ~tenants:ntenants;
  let counters = Bt.Counters.create () in
  let cache = Bt.Code_cache.create () in
  let evictions = ref 0 in
  let tstates =
    Array.init ntenants (fun tid ->
        { ts_tid = tid; demoted = false; window = []; round_translations = 0; evicted = 0 })
  in
  let managed =
    List.mapi
      (fun sid s ->
        {
          m_spec = s;
          m_sid = sid;
          m_stats = no_stats;
          m_dispatches = 0;
          m_hits = 0;
          m_sess = None;
          m_state = Waiting;
          m_restarts = 0;
          next_start = 0;
          m_decision = None;
          m_final = None;
          crash_pending = s.crash_at;
        })
      specs
  in
  let queue : managed Queue.t = Queue.create () in
  let live_count () =
    List.fold_left (fun n m -> if m.m_state = Live then n + 1 else n) 0 managed
  in
  let global_tick = ref 0 in
  let latencies = ref [] in
  let max_backoff_used = ref 0 in
  let round = ref 0 in
  (* Go live: fresh incarnation over a fresh guest memory. Only the
     first incarnation carries the injected crash and the fuel-stuck
     override — a restart must be able to succeed. *)
  let admit m =
    let base = m.m_spec.config in
    let base =
      match m.m_spec.first_fuel with
      | Some f when m.m_restarts = 0 -> { base with Bt.Runtime.fuel = f }
      | _ -> base
    in
    let config =
      match sink with
      | None -> base
      | Some t ->
        let inner = base.Bt.Runtime.on_event in
        {
          base with
          Bt.Runtime.on_event =
            Some
              (fun ev ->
                (match inner with Some f -> f ev | None -> ());
                Obs.Trace.hook t ev);
        }
    in
    let mem = m.m_spec.fresh_mem () in
    let sess =
      Session.create ~cache
        ?crash_at:(if m.m_restarts = 0 then m.crash_pending else None)
        ~sid:m.m_sid ~tid:m.m_spec.tid ~config ~mem ~entry:m.m_spec.entry ()
    in
    if tstates.(m.m_spec.tid).demoted then Session.demote sess;
    m.m_sess <- Some sess;
    m.m_state <- Live
  in
  let demote_tenant ts =
    ts.demoted <- true;
    Bt.Counters.incr counters Bt.Counters.Demotions;
    List.iter
      (fun m ->
        if m.m_spec.tid = ts.ts_tid then
          match (m.m_state, m.m_sess) with
          | Live, Some sess -> Session.demote sess
          | _ -> ())
      managed
  in
  let window_sum ts =
    ts.window <- List.filter (fun (r, _) -> r > !round - cfg.storm_window) ts.window;
    List.fold_left (fun s (_, n) -> s + n) 0 ts.window
  in
  let unfinished () = List.exists (fun m -> m.m_state <> Done) managed in
  let max_rounds = 1_000_000 in
  while unfinished () && !round < max_rounds do
    (* 1. arrivals, in submission order *)
    List.iter
      (fun m ->
        if m.m_state = Waiting && m.m_spec.arrival <= !round then
          if live_count () < cfg.max_live then begin
            m.m_decision <- Some Admitted;
            admit m
          end
          else if Queue.length queue < cfg.queue_limit then begin
            m.m_decision <- Some Deferred;
            m.m_state <- Queued;
            Bt.Counters.incr counters Bt.Counters.Admission_defers;
            Queue.push m queue
          end
          else begin
            m.m_decision <- Some Rejected;
            m.m_state <- Done;
            Bt.Counters.incr counters Bt.Counters.Admission_rejects
          end)
      managed;
    (* 2. due supervisor restarts (need a free slot; otherwise they
       stay due and win a slot on a later round) *)
    List.iter
      (fun m ->
        if m.m_state = Backoff && m.next_start <= !round && live_count () < cfg.max_live
        then begin
          Bt.Counters.incr counters Bt.Counters.Restarts;
          admit m
        end)
      managed;
    (* 3. one slice per live session, in submission order *)
    List.iter
      (fun m ->
        match (m.m_state, m.m_sess) with
        | Live, Some sess ->
          let ts = tstates.(m.m_spec.tid) in
          let over_quota =
            match cfg.translation_quota with
            | Some q -> ts.round_translations >= q
            | None -> false
          in
          if not over_quota then begin
            let rt = sess.Session.rt in
            let cpu = rt.Bt.Runtime.cpu in
            (match sink with
            | Some t ->
              Obs.Trace.set_tag t (Some m.m_sid);
              Obs.Trace.set_clock t (fun () -> Machine.Cpu.now cpu)
            | None -> ());
            (* keep LRU stamps globally ordered across sessions *)
            rt.Bt.Runtime.lru_tick <- !global_tick;
            let cy0 = cpu.Machine.Cpu.cycles in
            let tr0 = cpu.Machine.Cpu.align_traps in
            let tl0 = Bt.Counters.geti (Bt.Runtime.counters rt) Bt.Counters.Translations in
            let st = Session.step sess ~fuel:cfg.slice_fuel in
            global_tick := rt.Bt.Runtime.lru_tick;
            let dcy = cpu.Machine.Cpu.cycles - cy0 in
            let dtr = cpu.Machine.Cpu.align_traps - tr0 in
            let dtl =
              Bt.Counters.geti (Bt.Runtime.counters rt) Bt.Counters.Translations - tl0
            in
            ts.round_translations <- ts.round_translations + dtl;
            if dtr > 0 then begin
              ts.window <- (!round, dtr) :: ts.window;
              let per = Int64.of_int (dcy / dtr) in
              for _ = 1 to dtr do
                latencies := per :: !latencies
              done
            end;
            if (not ts.demoted) && window_sum ts > cfg.storm_traps then
              demote_tenant ts;
            (* capacity enforcement evicts through the runtime of the
               tenant that just ran — its pressure, its cost *)
            (match cfg.capacity with
            | Some capacity ->
              List.iter
                (fun o ->
                  incr evictions;
                  if o >= 0 && o < ntenants then
                    tstates.(o).evicted <- tstates.(o).evicted + 1)
                (enforce ~tenants:ntenants ~capacity ~for_tenant:m.m_spec.tid rt)
            | None -> ());
            match st with
            | Session.Running | Session.Degraded -> ()
            | Session.Halted ->
              absorb m sess;
              m.m_state <- Done;
              m.m_final <- Some st
            | Session.Faulted f ->
              absorb m sess;
              if f = Session.Crash_injected then m.crash_pending <- None;
              if m.m_restarts >= cfg.max_restarts then begin
                m.m_state <- Done;
                m.m_final <- Some st
              end
              else begin
                let delay = min (1 lsl m.m_restarts) cfg.backoff_cap in
                max_backoff_used := max !max_backoff_used delay;
                m.m_restarts <- m.m_restarts + 1;
                m.next_start <- !round + delay;
                m.m_state <- Backoff
                (* the faulted incarnation's session object is replaced
                   at restart; keep it meanwhile for introspection *)
              end
          end
        | _ -> ())
      managed;
    (* 4. backfill freed slots from the run queue *)
    while live_count () < cfg.max_live && not (Queue.is_empty queue) do
      admit (Queue.pop queue)
    done;
    Array.iter (fun ts -> ts.round_translations <- 0) tstates;
    incr round
  done;
  (* round-limit safety net: surface any survivor as faulted *)
  List.iter
    (fun m ->
      if m.m_state <> Done then begin
        (match (m.m_state, m.m_sess) with
        | Live, Some sess -> absorb m sess
        | _ -> ());
        m.m_state <- Done;
        if m.m_final = None then
          m.m_final <- Some (Session.Faulted (Session.Error "scheduler round limit"))
      end)
    managed;
  (match sink with Some t -> Obs.Trace.set_tag t None | None -> ());
  (* --- reports --------------------------------------------------------- *)
  let session_reports =
    List.map
      (fun m ->
        {
          sid = m.m_sid;
          s_tid = m.m_spec.tid;
          decision = (match m.m_decision with Some d -> d | None -> Rejected);
          status = m.m_final;
          restarts = m.m_restarts;
          dispatches = m.m_dispatches;
          hits = m.m_hits;
          stats = m.m_stats;
        })
      managed
  in
  let sum ms = List.fold_left (fun s m -> Bt.Run_stats.add s m.m_stats) no_stats ms in
  let tenant_reports =
    List.init ntenants (fun tid ->
        let mine = List.filter (fun m -> m.m_spec.tid = tid) managed in
        let sumi f = List.fold_left (fun s m -> s + f m) 0 mine in
        let count p = List.length (List.filter p mine) in
        {
          t_tid = tid;
          submissions = List.length mine;
          demoted = tstates.(tid).demoted;
          t_stats = sum mine;
          evictions_suffered = tstates.(tid).evicted;
          t_dispatches = sumi (fun m -> m.m_dispatches);
          t_hits = sumi (fun m -> m.m_hits);
          t_restarts = sumi (fun m -> m.m_restarts);
          rejected = count (fun m -> m.m_decision = Some Rejected);
          deferred = count (fun m -> m.m_decision = Some Deferred);
        })
  in
  let total = sum managed in
  let report =
    {
      rounds = !round;
      sessions = session_reports;
      tenants = tenant_reports;
      restarts = Bt.Counters.geti counters Bt.Counters.Restarts;
      demotions = Bt.Counters.geti counters Bt.Counters.Demotions;
      admission_rejects = Bt.Counters.geti counters Bt.Counters.Admission_rejects;
      admission_defers = Bt.Counters.geti counters Bt.Counters.Admission_defers;
      evictions = !evictions;
      p99_trap_cycles = p99 !latencies;
      max_backoff_used = !max_backoff_used;
      cache_live_insns = Bt.Code_cache.live_insns cache;
      cache_blocks = Bt.Code_cache.num_blocks cache;
    }
  in
  let agg_stats =
    {
      total with
      mechanism =
        (match specs with
        | s :: _ -> Bt.Mechanism.name s.config.Bt.Runtime.mechanism
        | [] -> "none");
      stop = Bt.Run_stats.Halted;
      blocks = Bt.Code_cache.num_blocks cache;
      code_len = Bt.Code_cache.length cache;
    }
  in
  {
    report;
    finals = List.map (fun m -> m.m_sess) managed;
    counters;
    agg_stats;
  }

let isolated_cycles ~tenants cfg specs tid =
  let o = run ~tenants cfg (List.filter (fun s -> s.tid = tid) specs) in
  (List.nth o.report.tenants tid).t_stats.cycles
