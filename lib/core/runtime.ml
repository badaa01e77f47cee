(* The DigitalBridge-style DBT runtime (paper Figure 4/9).

   Drives the whole system: dispatches on guest pc, interprets cold
   blocks (phase 1, optionally profiling alignment), translates hot
   blocks, runs translated code on the host CPU, chains block exits,
   and services misalignment exceptions according to the active
   mechanism — OS-style fixup (Emulate) or patch-and-retry with MDA
   code sequences, plus the deferred rearrangement and retranslation
   policies. *)

module G = Mda_guest
module H = Mda_host.Isa
module Machine = Mda_machine
module Seq = Mda_host.Mda_seq

(* What retranslation invalidates: the faulting block only (this BT's
   policy, Section IV-C) or the whole code cache (Dynamo's flush
   policy, which the paper contrasts it with). *)
type flush_policy = Block_granularity | Full_flush

(* BT-level events, for tracing and debugging. Guest addresses identify
   blocks; host pcs identify code-cache locations. *)
type event =
  | Ev_translate of { block : int; entry : int; host_len : int }
  | Ev_trap of { host_pc : int; guest_addr : int; ea : int }
  | Ev_patch of { host_pc : int; guest_addr : int; seq_at : int }
  | Ev_os_fixup of { host_pc : int; guest_addr : int; ea : int }
    (* guest_addr is -1 when no site record maps the faulting pc *)
  | Ev_chain of { at : int; target_block : int }
  | Ev_rearrange of { block : int; entry : int }
  | Ev_retranslate of { block : int }
  | Ev_evict of { block : int; freed : int }
    (* a bounded cache dropped this block's translation to make room *)
  | Ev_patch_fault of { host_pc : int; guest_addr : int; attempt : int }
    (* an injected fault refused this patch attempt; the trap was
       serviced by OS-style fixup instead *)
  | Ev_degrade of { guest_addr : int; attempts : int }
    (* after [attempts] failed patches the site permanently falls back
       to OS-style fixup — the graceful-degradation policy firing *)

let event_kind = function
  | Ev_translate _ -> "translate"
  | Ev_trap _ -> "trap"
  | Ev_patch _ -> "patch"
  | Ev_os_fixup _ -> "os-fixup"
  | Ev_chain _ -> "chain"
  | Ev_rearrange _ -> "rearrange"
  | Ev_retranslate _ -> "retranslate"
  | Ev_evict _ -> "evict"
  | Ev_patch_fault _ -> "patch-fault"
  | Ev_degrade _ -> "degrade"

let pp_event fmt = function
  | Ev_translate { block; entry; host_len } ->
    Format.fprintf fmt "translate  block %#x -> entry %d (%d host insns)" block entry
      host_len
  | Ev_trap { host_pc; guest_addr; ea } ->
    Format.fprintf fmt "trap       host pc %d (guest %#x) on address %#x" host_pc
      guest_addr ea
  | Ev_patch { host_pc; guest_addr; seq_at } ->
    Format.fprintf fmt "patch      host pc %d (guest %#x) -> MDA sequence at %d" host_pc
      guest_addr seq_at
  | Ev_os_fixup { host_pc; guest_addr; ea } ->
    Format.fprintf fmt "os-fixup   host pc %d (guest %#x) on address %#x" host_pc
      guest_addr ea
  | Ev_chain { at; target_block } ->
    Format.fprintf fmt "chain      exit at %d -> block %#x" at target_block
  | Ev_rearrange { block; entry } ->
    Format.fprintf fmt "rearrange  block %#x -> new entry %d" block entry
  | Ev_retranslate { block } ->
    Format.fprintf fmt "retranslate block %#x (invalidate + re-profile)" block
  | Ev_evict { block; freed } ->
    Format.fprintf fmt "evict      block %#x (%d live host insns freed)" block freed
  | Ev_patch_fault { host_pc; guest_addr; attempt } ->
    Format.fprintf fmt "patch-fault host pc %d (guest %#x) attempt %d refused" host_pc
      guest_addr attempt
  | Ev_degrade { guest_addr; attempts } ->
    Format.fprintf fmt "degrade    guest %#x -> OS fixup after %d failed patches"
      guest_addr attempts

(* Fault-injection knobs, all off by default. [cache_capacity] bounds the
   *live* code-cache footprint (host insns); [patch_budget] caps total
   successful handler patches; [patch_refuse] lets a fault plan veto
   individual patch attempts. After [degrade_after] failed attempts a
   site permanently degrades to OS-style fixup instead of trap-storming. *)
type faults = {
  cache_capacity : int option;
  patch_budget : int option;
  patch_refuse : (guest_addr:int -> attempt:int -> bool) option;
  degrade_after : int;
}

let no_faults =
  { cache_capacity = None; patch_budget = None; patch_refuse = None; degrade_after = 3 }

type config = {
  mechanism : Mechanism.t;
  cost : Machine.Cost_model.t;
  fuel : int; (* bound on host instructions, guards against runaway code *)
  max_guest_insns : int64; (* stop the run after this many guest insns *)
  chaining : bool; (* link translated block exits directly (standard) *)
  flush_policy : flush_policy;
  faults : faults; (* injected-fault knobs; [no_faults] = unbounded, reliable *)
  rules : Mda_host.Peephole.active option; (* the peephole rewrite tier *)
  on_event : (event -> unit) option; (* tracing hook *)
}

let default_config mechanism =
  { mechanism;
    cost = Machine.Cost_model.default;
    fuel = 2_000_000_000;
    max_guest_insns = Int64.max_int;
    chaining = true;
    flush_policy = Block_granularity;
    faults = no_faults;
    rules = None;
    on_event = None }

type t = {
  cpu : Machine.Cpu.t;
  cache : Code_cache.t;
  profile : Profile.t;
  config : config;
  blocks_decoded : (int, Block.t) Hashtbl.t;
  (* Every statistic lives in the declared-once counter registry
     ({!Counters.all}): [Run_stats], the lib/obs sinks and the CLI all
     read the same table. The expansion-ratio counters
     (translated_guest_len / translated_host_len) estimate how many
     guest instructions the translated code retired — chained block
     execution never returns to the dispatcher, so it cannot be counted
     exactly. *)
  counters : Counters.t;
  mutable fuel_left : int; (* never negative; 0 = runaway guard fired *)
  mutable lru_tick : int; (* dispatch clock stamping block_rec.last_used *)
  mutable os_fixup_only : bool;
  (* tenant-granularity degradation (the serving layer's trap-storm
     demotion): every trap is serviced by OS-style fixup, no patching *)
  degraded : (int, unit) Hashtbl.t;
  (* guest addrs permanently degraded to OS fixup; keyed outside the
     code cache so the verdict survives eviction and retranslation *)
  patch_attempts : (int, int) Hashtbl.t; (* guest addr -> failed patch attempts *)
  scratch : Translate.scratch;
  (* this runtime's emission arena, reused across every translation *)
  phase1_mode : Interp.mode;
  phase1_observer : Interp.observer;
  (* phase 1's interpreter mode and memory observer, fixed by the
     mechanism and built once, so an interpreted block allocates nothing *)
}

(* The interpreter's memory observer: ground-truth reference and MDA
   counts, plus the per-site alignment profile when [profiling]. *)
let observer counters profile ~profiling : Interp.observer =
 fun ~guest_addr ~ea:_ ~size:_ ~store:_ ~aligned ->
  Counters.incr counters Counters.Memrefs;
  if not aligned then Counters.incr counters Counters.Mdas;
  if profiling then Profile.record profile ~guest_addr ~aligned

let create ?(config = default_config (Mechanism.Exception_handling { rearrange = false }))
    ?cache ~mem () =
  (* An AOT cache is immutable: a capacity bound could only be enforced
     by evicting translations the runtime can never regenerate, so the
     combination is rejected here rather than silently violated. *)
  (match config.faults.cache_capacity with
  | Some c when c < 1 -> invalid_arg "Runtime.create: cache capacity must be >= 1"
  | Some _ when Mechanism.is_static config.mechanism ->
    invalid_arg "Runtime.create: a bounded code cache cannot back an immutable AOT cache"
  | _ -> ());
  let hier = Machine.Hierarchy.create config.cost in
  let counters = Counters.create () and profile = Profile.create () in
  let profiling = Mechanism.profiles_alignment config.mechanism in
  let cpu =
    Machine.Cpu.create ~code_base:Layout.code_cache_base ~mem ~hier ~cost:config.cost ()
  in
  let t =
    { cpu;
      cache = (match cache with Some c -> c | None -> Code_cache.create ());
      profile;
      config;
      blocks_decoded = Hashtbl.create 256;
      counters;
      fuel_left = max 0 config.fuel;
      lru_tick = 0;
      os_fixup_only = false;
      degraded = Hashtbl.create 8;
      patch_attempts = Hashtbl.create 8;
      scratch = Translate.create_scratch ();
      phase1_mode = Interpreted { profile = profiling };
      phase1_observer = observer counters profile ~profiling }
  in
  (* A pre-populated (AOT) cache arrives with its translations already
     emitted, so seed the expansion-ratio counters the dynamic path
     accumulates per translation — the retired-guest-instruction
     estimate depends on them. The blocks decode from the same image
     the AOT driver walked, so the lengths agree with what
     [translate_block] would have recorded. *)
  Code_cache.iter_blocks t.cache (fun brec ->
      match brec.Code_cache.host_range with
      | None -> ()
      | Some (lo, hi) -> begin
        match Block.discover mem ~pc:brec.Code_cache.start with
        | Ok block ->
          Hashtbl.replace t.blocks_decoded brec.Code_cache.start block;
          Counters.addi t.counters Counters.Translated_guest_len (Block.length block);
          Counters.addi t.counters Counters.Translated_host_len (hi - lo)
        | Error _ -> ()
      end);
  t

let counters t = t.counters

let set_os_fixup_only t v = t.os_fixup_only <- v

exception Runtime_error of string

let emit_event t ev =
  match t.config.on_event with Some f -> f ev | None -> ()

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* --- block lookup ----------------------------------------------------- *)

let guest_block t pc =
  match Block.discover t.cpu.Machine.Cpu.mem ~pc with Ok b -> Some b | Error _ -> None

let block_of t pc =
  match Hashtbl.find t.blocks_decoded pc with
  | b -> b
  | exception Not_found -> begin
    match Block.discover t.cpu.Machine.Cpu.mem ~pc with
    | Ok b ->
      Hashtbl.replace t.blocks_decoded pc b;
      b
    | Error e -> fail "%s" (Format.asprintf "%a" Block.pp_error e)
  end

(* --- translation policies -------------------------------------------- *)

(* Mixed-alignment site: the Figure-8 multi-version candidate. *)
let is_mixed t addr =
  match Profile.find t.profile addr with
  | Some s when s.refs >= 8 && s.mdas > 0 && s.mdas < s.refs ->
    let r = float_of_int s.mdas /. float_of_int s.refs in
    (* two versions pay off only when enough executions take the cheap
       aligned path to amortize the alignment test (Section IV-D) *)
    r >= 0.05 && r <= 0.6
  | _ -> false

let policy_for t (brec : Code_cache.block_rec) : int -> Translate.policy =
 fun addr ->
  match t.config.mechanism with
  | Direct -> Seq_always
  | Static_profiling summary ->
    if Profile.summary_mem summary addr then Seq_always else Normal
  | Dynamic_profiling _ ->
    if Profile.is_mda_site t.profile addr then Seq_always else Normal
  | Exception_handling _ ->
    (* initial translation: all aligned; after rearrangement the patched
       sites come back inline *)
    if Hashtbl.mem brec.patched addr then Seq_always else Normal
  | Dpeh { multiversion; _ } ->
    if multiversion && is_mixed t addr then Multi
    else if Hashtbl.mem brec.known_mda addr || Profile.is_mda_site t.profile addr then
      Seq_always
    else Normal
  | Static_analysis { summary; unknown } -> begin
    (* SA-guided translation: trust the analysis's proofs, and treat
       unclassified operands per the configured policy. A patched
       unknown site comes back [Seq_always] so a rebuild (never
       scheduled by this mechanism, but harmless) keeps the fix. *)
    match Mechanism.sa_classify summary addr with
    | Align_misaligned -> Seq_always
    | Align_aligned -> Normal
    | Align_unknown -> begin
      match unknown with
      | Sa_seq -> Seq_always
      | Sa_fallback -> if Hashtbl.mem brec.patched addr then Seq_always else Normal
    end
  end
  | Aot { summary; unknown } -> begin
    (* Same verdict-driven policy as Static_analysis, but with no
       patched-site case: the AOT cache is immutable, so Sa_fallback
       unknowns stay plain and are OS-fixed-up on every trap. (Runtime
       translation never happens under Aot — the cache is pre-populated
       by {!Aot} with this same policy — but the arm keeps [policy_for]
       total.) *)
    match Mechanism.sa_classify summary addr with
    | Align_misaligned -> Seq_always
    | Align_aligned -> Normal
    | Align_unknown -> (
      match unknown with Sa_seq -> Seq_always | Sa_fallback -> Normal)
  end

(* --- invalidation and bounded-cache eviction --------------------------- *)

let invalidate_block t (brec : Code_cache.block_rec) =
  Code_cache.invalidate t.cache brec ~repatch:(fun _ ->
      H.Monitor (Next_guest brec.start));
  Machine.Cpu.charge t.cpu t.config.cost.invalidate_block

(* Drop one block to make room: unlink its in-chains, remove its sites,
   clear its entry. The only eviction path — [enforce_capacity] and the
   serving layer's shared cache both evict through it. The evicted block
   keeps its heat (only Full_flush resets it), so the very next
   dispatch re-translates it. *)
let evict_block t (b : Code_cache.block_rec) =
  let freed = Code_cache.block_live_insns b in
  invalidate_block t b;
  b.want_retrans <- false;
  Counters.incr t.counters Counters.Evictions;
  emit_event t (Ev_evict { block = b.start; freed })

(* Enforce the injected capacity bound on live occupancy. [current] (the
   block being translated or patched right now) is never a victim, so a
   single oversized block may legally overshoot the bound.

   Block_granularity evicts one {!Code_cache.lru_victim} at a time;
   Full_flush is the Dynamo policy — one overflow drops every other
   live translation and resets their heat. *)
let enforce_capacity t ~(current : Code_cache.block_rec) =
  match t.config.faults.cache_capacity with
  | None -> ()
  | Some cap ->
    if Code_cache.live_insns t.cache > cap then begin
      match t.config.flush_policy with
      | Full_flush ->
        Code_cache.iter_blocks t.cache (fun b ->
            if b.entry <> None && b.start <> current.start then begin
              evict_block t b;
              b.execs <- 0
            end);
        Machine.Hierarchy.invalidate_code t.cpu.Machine.Cpu.hier
      | Block_granularity ->
        let rec go () =
          if Code_cache.live_insns t.cache > cap then
            match
              Code_cache.lru_victim t.cache ~eligible:(fun b -> b.start <> current.start)
            with
            | Some b ->
              evict_block t b;
              go ()
            | None -> ()
        in
        go ()
    end

(* --- misalignment exception handler ----------------------------------- *)

let install_handler t =
  Machine.Cpu.set_handler t.cpu (fun ~pc ~addr insn ->
      let _ = insn in
      if (not (Mechanism.patches_on_trap t.config.mechanism)) || t.os_fixup_only then begin
        let guest_addr =
          match Code_cache.find_site t.cache pc with
          | Some site -> site.Code_cache.guest_addr
          | None -> -1
        in
        emit_event t (Ev_os_fixup { host_pc = pc; guest_addr; ea = addr });
        Machine.Cpu.Emulate
      end
      else
        match Code_cache.find_site t.cache pc with
        | None ->
          (* An access with no site record (e.g. inside an MDA sequence —
             impossible — or a stale mapping): fall back to OS fixup.
             Still emit the event — the trace must account for every
             trap, or replay could not reconstruct the trap count. *)
          emit_event t (Ev_os_fixup { host_pc = pc; guest_addr = -1; ea = addr });
          Machine.Cpu.Emulate
        | Some site when Hashtbl.mem t.degraded site.Code_cache.guest_addr ->
          (* The site already degraded: OS fixup forever, no more patch
             attempts, no trap storm. *)
          emit_event t
            (Ev_os_fixup { host_pc = pc; guest_addr = site.Code_cache.guest_addr; ea = addr });
          Machine.Cpu.Emulate
        | Some site ->
          emit_event t (Ev_trap { host_pc = pc; guest_addr = site.guest_addr; ea = addr });
          let f = t.config.faults in
          let attempt =
            1 + Option.value (Hashtbl.find_opt t.patch_attempts site.guest_addr) ~default:0
          in
          let budget_exhausted =
            match f.patch_budget with
            | Some b -> Counters.geti t.counters Counters.Handler_patches >= b
            | None -> false
          in
          let refused =
            match f.patch_refuse with
            | Some g -> g ~guest_addr:site.guest_addr ~attempt
            | None -> false
          in
          if budget_exhausted || refused then begin
            (* Injected fault: the patch attempt fails. Service this trap
               by OS-style fixup; after [degrade_after] failures the site
               permanently degrades so it cannot trap-storm. *)
            Hashtbl.replace t.patch_attempts site.guest_addr attempt;
            Counters.incr t.counters Counters.Patch_faults;
            emit_event t
              (Ev_patch_fault { host_pc = pc; guest_addr = site.guest_addr; attempt });
            if attempt >= f.degrade_after then begin
              Hashtbl.replace t.degraded site.guest_addr ();
              Counters.incr t.counters Counters.Degrades;
              emit_event t (Ev_degrade { guest_addr = site.guest_addr; attempts = attempt })
            end;
            let brec = Code_cache.block t.cache site.block_start in
            brec.traps <- brec.traps + 1;
            Machine.Cpu.Emulate
          end
          else begin
            (* Generate the MDA code sequence in the code cache and patch
               the faulting slot into a branch to it (paper Figure 5). *)
            let seq = Seq.emit site.op @ [ H.Br { ra = H.r31; target = pc + 1 } ] in
            let seq_start = Code_cache.emit t.cache seq in
            Code_cache.patch t.cache pc (H.Br { ra = H.r31; target = seq_start });
            emit_event t
              (Ev_patch { host_pc = pc; guest_addr = site.guest_addr; seq_at = seq_start });
            Counters.incr t.counters Counters.Handler_patches;
            Machine.Cpu.charge t.cpu t.config.cost.patch;
            let brec = Code_cache.block t.cache site.block_start in
            Hashtbl.replace brec.patched site.guest_addr ();
            Hashtbl.replace brec.known_mda site.guest_addr ();
            brec.traps <- brec.traps + 1;
            brec.seq_insns <- brec.seq_insns + List.length seq;
            (match t.config.mechanism with
            | Exception_handling { rearrange = true } -> brec.dirty_rearrange <- true
            | Dpeh { retranslate = Some limit; _ } ->
              if brec.traps >= limit then brec.want_retrans <- true
            | _ -> ());
            (* A block scheduled for rebuilding must be unlinked from its
               callers, or chained execution would never return control to
               the dispatcher that performs the rebuild. *)
            if brec.dirty_rearrange || brec.want_retrans then begin
              List.iter
                (fun at ->
                  Code_cache.patch t.cache at (H.Monitor (Next_guest brec.start)))
                brec.in_chains;
              brec.in_chains <- []
            end;
            (* The out-of-line sequence grew this block's live footprint. *)
            enforce_capacity t ~current:brec;
            Machine.Cpu.Retry
          end)

(* --- translation ------------------------------------------------------ *)

let translate_block ?(charge = true) t (brec : Code_cache.block_rec) =
  let block = block_of t brec.start in
  let hits_before, saved_before =
    match t.config.rules with
    | None -> (0, 0)
    | Some rs -> (Mda_host.Peephole.total_hits rs, Mda_host.Peephole.total_saved rs)
  in
  let entry =
    try
      Translate.translate ?rules:t.config.rules ~scratch:t.scratch ~cache:t.cache
        ~policy_of:(policy_for t brec) block
    with Translate.Error e ->
      (* the arena never touched the cache, so the runtime state is
         intact; surface the lowering failure as a runtime error *)
      fail "%s" (Translate.error_to_string e)
  in
  (match t.config.rules with
  | None -> ()
  | Some rs ->
    Counters.addi t.counters Counters.Peephole_hits
      (Mda_host.Peephole.total_hits rs - hits_before);
    Counters.addi t.counters Counters.Peephole_saved
      (Mda_host.Peephole.total_saved rs - saved_before));
  let hi = Code_cache.length t.cache in
  brec.entry <- Some entry;
  brec.host_range <- Some (entry, hi);
  Counters.incr t.counters Counters.Translations;
  Counters.addi t.counters Counters.Translated_guest_len (Block.length block);
  Counters.addi t.counters Counters.Translated_host_len (hi - entry);
  if charge then
    Machine.Cpu.charge t.cpu (t.config.cost.translate_guest_insn * Block.length block);
  emit_event t (Ev_translate { block = brec.start; entry; host_len = hi - entry });
  (* A fresh translation may push live occupancy past an injected bound. *)
  enforce_capacity t ~current:brec;
  entry

(* Deferred code rearrangement: rebuild the block with its patched MDA
   sequences inline (Figure 6). Repositioning copies and re-links already
   translated code, so it costs relocation work per host instruction
   moved, not a fresh translation. *)
let rearrange_block t (brec : Code_cache.block_rec) =
  invalidate_block t brec;
  let entry = translate_block ~charge:false t brec in
  (match brec.host_range with
  | Some (lo, hi) -> Machine.Cpu.charge t.cpu (t.config.cost.reloc_insn * (hi - lo))
  | None -> ());
  brec.dirty_rearrange <- false;
  Counters.incr t.counters Counters.Rearrangements;
  emit_event t (Ev_rearrange { block = brec.start; entry });
  entry

(* Deferred retranslation (Figure 7): invalidate and restart the block's
   dynamic-profiling-and-translation process. Under [Full_flush] (the
   Dynamo policy the paper contrasts with), every translated block is
   dropped, not just the offender. *)
let retranslate_block t (brec : Code_cache.block_rec) =
  (match t.config.flush_policy with
  | Block_granularity -> invalidate_block t brec
  | Full_flush ->
    Code_cache.iter_blocks t.cache (fun b ->
        if b.entry <> None then begin
          invalidate_block t b;
          b.execs <- 0
        end);
    Machine.Hierarchy.invalidate_code t.cpu.Machine.Cpu.hier);
  brec.execs <- 0;
  brec.traps <- 0;
  brec.want_retrans <- false;
  brec.retrans_count <- brec.retrans_count + 1;
  Counters.incr t.counters Counters.Retranslations;
  emit_event t (Ev_retranslate { block = brec.start })

(* --- execution -------------------------------------------------------- *)

(* Interpret the block at [pc] once. The one guest interpreter driver:
   phase 1 of [step], and the whole of [interpret]. *)
let interp_block t mode observer pc =
  let block = block_of t pc in
  let n = Block.length block in
  Counters.addi t.counters Counters.Guest_insns n;
  Counters.addi t.counters Counters.Interp_insns n;
  Interp.run_block t.cpu mode block observer

(* Chain an unchained Monitor exit into a direct branch when its target
   is (still) translated. *)
let maybe_chain t ~at ~target_pc =
  if not t.config.chaining then ()
  else
  match Code_cache.insn_at t.cache at with
  | Some (H.Monitor (Next_guest g)) when g = target_pc -> begin
    match Code_cache.find_block t.cache target_pc with
    | Some tb -> begin
      match tb.entry with
      | Some e when (not tb.dirty_rearrange) && not tb.want_retrans ->
        Code_cache.patch t.cache at (H.Br { ra = H.r31; target = e });
        tb.in_chains <- at :: tb.in_chains;
        emit_event t (Ev_chain { at; target_block = target_pc });
        Counters.incr t.counters Counters.Chains;
        Machine.Cpu.charge t.cpu t.config.cost.chain_patch
      | _ -> ()
    end
    | None -> ()
  end
  | _ -> ()

let enter_translated t entry =
  let before = t.cpu.Machine.Cpu.insns in
  let exit_reason, at =
    Machine.Cpu.run t.cpu ~src:t.cache ~code_of:Code_cache.code ~len_of:Code_cache.length
      ~entry ~fuel:t.fuel_left
  in
  (* [run] retires at most [fuel_left] instructions; the clamp keeps
     [fuel_left >= 0] whatever it retired. *)
  t.fuel_left <- max 0 (t.fuel_left - (t.cpu.Machine.Cpu.insns - before));
  match exit_reason with
  | Machine.Cpu.Exit_next_guest g ->
    maybe_chain t ~at ~target_pc:g;
    `Continue g
  | Machine.Cpu.Exit_dyn_guest g -> `Continue g
  | Machine.Cpu.Exit_halt -> `Halt

let step t pc =
  let brec = Code_cache.block t.cache pc in
  t.lru_tick <- t.lru_tick + 1;
  brec.last_used <- t.lru_tick;
  if brec.want_retrans then retranslate_block t brec;
  match brec.entry with
  | Some _ when brec.dirty_rearrange ->
    let entry = rearrange_block t brec in
    enter_translated t entry
  | Some entry -> enter_translated t entry
  | None when Mechanism.is_static t.config.mechanism ->
    (* AOT dispatch miss: the pre-populated cache has no translation for
       this block and runtime translation is disabled. Surfaced as a
       hard stop — it means static discovery was incomplete. *)
    `Aot_miss pc
  | None ->
    let threshold = Mechanism.heating_threshold t.config.mechanism in
    if brec.execs < threshold then begin
      brec.execs <- brec.execs + 1;
      let next = interp_block t t.phase1_mode t.phase1_observer pc in
      if next = Interp.halted then `Halt else `Continue next
    end
    else begin
      let entry = translate_block t brec in
      enter_translated t entry
    end

(* Guest instructions retired by translated code, estimated from the
   average expansion ratio (chained execution cannot be counted exactly —
   see [translated_guest_len]). *)
let translated_guest_estimate t =
  let ghl = Counters.geti t.counters Counters.Translated_host_len in
  if ghl = 0 then 0L
  else
    Int64.of_float
      (float_of_int t.cpu.Machine.Cpu.insns
      *. (float_of_int (Counters.geti t.counters Counters.Translated_guest_len)
         /. float_of_int ghl))

let total_guest_insns t =
  Int64.add (Counters.get t.counters Counters.Guest_insns) (translated_guest_estimate t)

(* Snapshot the run's statistics at the current point, with the caller
   naming why execution stopped. [run] calls this once at the end; a
   step-resumable session (lib/server) may call it whenever its slice
   loop parks the runtime at a dispatch boundary. *)
let stats t ~(stop : Run_stats.stop_reason) : Run_stats.t =
  let c = t.counters and hier = t.cpu.Machine.Cpu.hier in
  { mechanism = Mechanism.name t.config.mechanism;
    stop;
    cycles = Int64.of_int t.cpu.Machine.Cpu.cycles;
    guest_insns = total_guest_insns t;
    interp_insns = Counters.get c Counters.Interp_insns;
    host_insns = Int64.of_int t.cpu.Machine.Cpu.insns;
    memrefs = Counters.get c Counters.Memrefs;
    mdas = Counters.get c Counters.Mdas;
    traps = Int64.of_int t.cpu.Machine.Cpu.align_traps;
    patches = Counters.geti c Counters.Handler_patches;
    translations = Counters.geti c Counters.Translations;
    retranslations = Counters.geti c Counters.Retranslations;
    rearrangements = Counters.geti c Counters.Rearrangements;
    chains = Counters.geti c Counters.Chains;
    evictions = Counters.geti c Counters.Evictions;
    patch_faults = Counters.geti c Counters.Patch_faults;
    degraded = Counters.geti c Counters.Degrades;
    blocks = Code_cache.num_blocks t.cache;
    code_len = Code_cache.length t.cache;
    icache_misses = snd (Machine.Cache.stats hier.Machine.Hierarchy.l1i);
    dcache_misses = snd (Machine.Cache.stats hier.Machine.Hierarchy.l1d) }

(* Pure-interpreter (or native-x86) execution of a whole guest program
   on [t], with full alignment profiling into [t.profile]: every block
   goes through [interp_block], nothing is translated. This is the
   ground-truth engine behind Table I ("how many MDAs does this program
   perform?"), Figure 15 (the per-site alignment-bias histogram), the
   train-input runs that feed the static-profiling mechanism, the
   chaos oracle, and — in [Native] mode — the Figure-1 experiment of
   running the binary on MDA-tolerant X86 hardware. *)
let interpret ?(mode = Interp.Interpreted { profile = true }) t ~entry =
  let observer = observer t.counters t.profile ~profiling:true in
  let limit = t.config.max_guest_insns in
  let rec go pc =
    if Int64.of_int (Counters.geti t.counters Counters.Guest_insns) >= limit then
      Run_stats.Insn_limit
    else
      let next = interp_block t mode observer pc in
      if next = Interp.halted then Run_stats.Halted else go next
  in
  let stop = go entry in
  let mechanism = match mode with Interp.Native -> "native-x86" | Interpreted _ -> "interpreter" in
  { (stats t ~stop) with mechanism; blocks = Hashtbl.length t.blocks_decoded }

let interpret_program ?mode ?(max_guest_insns = Int64.max_int) ~mem ~entry () =
  let config = { (default_config Mechanism.Direct) with max_guest_insns } in
  let t = create ~config ~mem () in
  let stats = interpret ?mode t ~entry in
  (stats, t.profile)

(* Run the guest program from [entry] to completion (guest Halt), the
   guest-instruction bound, or fuel exhaustion. The runaway-code guard
   ends the run gracefully — statistics are still reported, with the
   [Fuel_exhausted] stop reason surfaced — instead of aborting the whole
   simulation. A thin wrapper over {!install_handler}/{!step}/{!stats};
   the serving layer drives the same three pieces slice by slice. *)
let run t ~entry =
  install_handler t;
  let pc = ref entry in
  let halted = ref false in
  let out_of_fuel = ref false in
  let aot_miss = ref None in
  while
    (not !halted) && (not !out_of_fuel) && !aot_miss = None
    && total_guest_insns t < t.config.max_guest_insns
  do
    match step t !pc with
    | `Continue next -> pc := next
    | `Halt -> halted := true
    | `Aot_miss g -> aot_miss := Some g
    | exception Machine.Cpu.Out_of_fuel -> out_of_fuel := true
  done;
  stats t
    ~stop:
      (match !aot_miss with
      | Some guest_addr -> Run_stats.Aot_miss { guest_addr }
      | None ->
        if !out_of_fuel then Run_stats.Fuel_exhausted
        else if !halted then Run_stats.Halted
        else Run_stats.Insn_limit)
