(* exec-mech: Runtime.run on the low, highest and biased MDA-ratio rows
   of Table I (164.gzip, 410.bwaves, 188.ammp) at scale 1.0, each under
   the seven Figure-16 configurations. Translated code retires nearly
   every guest instruction here, so this is the workload of the
   simulated CPU (lib/machine); it holds trap-free runs (direct, aot)
   beside trap-heavy ones (dynamic on bwaves). Training, static analysis
   and AOT translation are set-up. The rows are fixed by Table I; the
   seed is not used. *)

module W = Mda_workloads
module Bt = Mda_bt
module H = Mda_harness
module A = Mda_analysis
module Machine = Mda_machine

let name = "exec-mech"

let benches = [ "164.gzip"; "410.bwaves"; "188.ammp" ]

let mechs = [ "direct"; "static"; "dynamic"; "eh"; "dpeh"; "sa"; "aot" ]

(* The simulated data-access stream replayed through the cache model. *)
let replay_bench = "410.bwaves"

let layers =
  let d name unit better = { Schema.name; unit; better } in
  [ d "analysis.blocks_per_s" "1/s" Schema.Higher;
    d "aot.blocks_per_s" "1/s" Schema.Higher;
    d "interp.guest_mips" "Minsn/s" Schema.Higher;
    d "cpu.host_mips" "Minsn/s" Schema.Higher ]
  @ List.map (fun m -> d ("cpu.host_mips." ^ m) "Minsn/s" Schema.Higher) mechs
  @ [ d "cpu.minor_words_per_host_insn" "words" Schema.Lower;
      d "hierarchy.ns_per_data_access" "ns" Schema.Lower;
      d "hierarchy.minor_words_per_data_access" "words" Schema.Lower;
      d "runtime.dispatch_steps" "count" Schema.Lower;
      d "bench.loop_ns_per_step" "ns" Schema.Lower;
      d "runtime.traps" "count" Schema.Lower;
      d "runtime.handler_ns_per_trap" "ns" Schema.Lower;
      d "runtime.translate_share" "%" Schema.Lower;
      Bench.overhead_decl name ]

type run = {
  bench : string;
  mech : string;
  w : W.Workload.t;
  config : Bt.Runtime.config;
  cache : Bt.Code_cache.t option;  (** the immutable AOT image *)
}

let aot_image w =
  let mem = W.Workload.fresh_memory w and entry = W.Workload.entry w in
  let summary = A.Dataflow.summary (A.Dataflow.analyze mem ~entry) in
  let unknown = Bt.Mechanism.Sa_seq in
  match Bt.Aot.translate_image ~summary ~unknown mem ~entry with
  | Ok (cache, _) -> (Bt.Mechanism.Aot { summary; unknown }, Some cache)
  | Error e -> failwith ("AOT translation of " ^ w.W.Workload.name ^ " failed: " ^ e)

(* Every run's prepared mechanism, exactly as the harness prepares it:
   a train-input profile for static, the congruence analysis for sa and
   aot, the whole-image AOT translation for aot. *)
let setup () =
  List.concat_map
    (fun bench ->
      let w = W.Workload.instantiate ~scale:1.0 bench in
      let spec s = H.Cell.mechanism_of_spec ~scale:1.0 ~input:W.Gen.Ref bench s in
      List.map
        (fun mech ->
          let mechanism, cache =
            match mech with
            | "direct" -> (spec H.Cell.Direct, None)
            | "static" -> (spec H.Cell.Static_profiling, None)
            | "dynamic" -> (H.Experiment.best_dynamic, None)
            | "eh" -> (H.Experiment.best_eh, None)
            | "dpeh" -> (H.Experiment.best_dpeh, None)
            | "sa" -> (H.Experiment.sa_mechanism ~scale:1.0 bench, None)
            | _ -> aot_image w
          in
          { bench; mech; w; config = Bt.Runtime.default_config mechanism; cache })
        mechs)
    benches

(* The oracle state and the oracle's run statistics, per benchmark. *)
let oracles () =
  List.map
    (fun bench ->
      let w = W.Workload.instantiate ~scale:1.0 bench in
      let (stats, state), s =
        Measure.timed (fun () ->
            Oracle.run ~mem:(W.Workload.fresh_memory w) ~entry:(W.Workload.entry w))
      in
      (bench, (state, stats, s)))
    benches

(* Checks on one finished run: it halted, its guest state equals the
   oracle's, and its statistics equal the first repetition's. *)
let check_run checks oracles reference r (stats : Bt.Run_stats.t) (rt : Bt.Runtime.t) =
  let label = r.bench ^ "/" ^ r.mech in
  let oracle, _, _ = List.assoc r.bench oracles in
  let matches = Oracle.matches oracle rt.Bt.Runtime.cpu in
  Bench.check checks
    (stats.Bt.Run_stats.stop = Bt.Run_stats.Halted && matches)
    (lazy
      (Printf.sprintf "%s: stopped %s, oracle state %s" label
         (Bt.Run_stats.stop_reason_to_string stats.Bt.Run_stats.stop)
         (if matches then "matched" else "differs")));
  let kv = Bt.Run_stats.to_kv stats in
  match Hashtbl.find_opt reference label with
  | None -> Hashtbl.replace reference label kv
  | Some first ->
    Bench.check checks (first = kv) (lazy (label ^ ": statistics differ between repetitions"))

(* One untraced run: Runtime.create + Runtime.run timed (fresh guest
   memory and the checks are outside the timing); its statistics and
   seconds. *)
let run_once checks oracles reference r =
  let mem = W.Workload.fresh_memory r.w in
  let (rt, stats), s =
    Measure.timed (fun () ->
        let rt = Bt.Runtime.create ~config:r.config ?cache:r.cache ~mem () in
        (rt, Bt.Runtime.run rt ~entry:(W.Workload.entry r.w)))
  in
  check_run checks oracles reference r stats rt;
  (stats, s)

let host_insns stats =
  List.fold_left (fun n (s : Bt.Run_stats.t) -> n + Int64.to_int s.Bt.Run_stats.host_insns) 0 stats

let measure (ctx : Bench.ctx) checks =
  let runs, setup = Measure.setups 3 setup in
  let oracles = oracles () in
  let reference = Hashtbl.create 32 in
  let insns = ref 0 in
  (* warm-up: every mechanism once, on the shortest row *)
  let warmup () =
    List.iter
      (fun r -> if r.bench = List.hd benches then ignore (run_once checks oracles reference r))
      runs
  in
  let rounds =
    Measure.rounds ~warmup ~seconds:ctx.seconds (fun () ->
        let results = List.map (run_once checks oracles reference) runs in
        insns := host_insns (List.map fst results);
        Array.of_list (List.map snd results))
  in
  { Bench.setup; rounds; ops_per_s = Measure.rate !insns rounds.Measure.wall }

(* --- the traced pass ------------------------------------------------------ *)

(* The bench-driven twin of Runtime.run: install_handler, then step
   until halt, each step timed and classified by counter deltas as
   interpret or execute (a translation inside the step is stamped by
   its Ev_translate event), the installed trap handler wrapped in a
   timer. Span tree per run: bench.loop > runtime.create | interp |
   cpu.<mech> > (translate | handler) | runtime.stats. A [cpu.<mech>]
   span covers the whole [Runtime.step] call, so the runtime's own
   dispatch inside it (block lookup, LRU tick, retranslation check,
   chaining) counts as CPU time: only spans inside lib/ could split it
   out. *)
let traced_run spans r =
  let l = Spans.label spans in
  let loop = l "bench.loop" and create = l "runtime.create" in
  let interp = l "interp" and cpu = l ("cpu." ^ r.mech) and translate = l "translate" in
  let handler = l "handler" and stats_l = l "runtime.stats" in
  let mem = Spans.within spans "workloads.image" (fun () -> W.Workload.fresh_memory r.w) in
  let stamp = ref 0 in
  let on_event = function Bt.Runtime.Ev_translate _ -> stamp := Measure.now_ns () | _ -> () in
  let config = { r.config with Bt.Runtime.on_event = Some on_event } in
  let top = Spans.enter spans loop in
  let c = Spans.enter spans create in
  let rt = Bt.Runtime.create ~config ?cache:r.cache ~mem () in
  Bt.Runtime.install_handler rt;
  let cpu_t = rt.Bt.Runtime.cpu in
  (match cpu_t.Machine.Cpu.handler with
  | Some h ->
    cpu_t.Machine.Cpu.handler <-
      Some
        (fun ~pc ~addr insn ->
          let s = Spans.enter spans handler in
          Fun.protect ~finally:(fun () -> Spans.leave spans s) (fun () -> h ~pc ~addr insn))
  | None -> ());
  Spans.leave spans c;
  let counters = Bt.Runtime.counters rt in
  let pc = ref (W.Workload.entry r.w) in
  let halted = ref false and out_of_fuel = ref false and aot_miss = ref None in
  while
    (not !halted) && (not !out_of_fuel) && !aot_miss = None
    && Bt.Runtime.total_guest_insns rt < config.Bt.Runtime.max_guest_insns
  do
    let interp0 = Bt.Counters.get counters Bt.Counters.Interp_insns in
    let tr0 = Bt.Counters.geti counters Bt.Counters.Translations in
    stamp := 0;
    let s = Spans.enter spans cpu in
    (match Bt.Runtime.step rt !pc with
    | `Continue next -> pc := next
    | `Halt -> halted := true
    | `Aot_miss g -> aot_miss := Some g
    | exception Machine.Cpu.Out_of_fuel -> out_of_fuel := true);
    Spans.leave spans s;
    if Bt.Counters.get counters Bt.Counters.Interp_insns <> interp0 then
      Spans.rename spans s interp
    else if Bt.Counters.geti counters Bt.Counters.Translations <> tr0 && !stamp > 0 then
      ignore
        (Spans.add spans ~name:translate ~start:spans.Spans.starts.(s) ~stop:!stamp ~parent:s)
  done;
  let st = Spans.enter spans stats_l in
  let stats =
    Bt.Runtime.stats rt
      ~stop:
        (match !aot_miss with
        | Some guest_addr -> Bt.Run_stats.Aot_miss { guest_addr }
        | None ->
          if !out_of_fuel then Bt.Run_stats.Fuel_exhausted
          else if !halted then Bt.Run_stats.Halted
          else Bt.Run_stats.Insn_limit)
  in
  Spans.leave spans st;
  Spans.leave spans top;
  (rt, stats)

(* Every access of [bench]'s interpreted run as (effective address,
   size) pairs, in order. *)
let data_stream bench =
  let w = W.Workload.instantiate ~scale:1.0 bench in
  let mem = W.Workload.fresh_memory w in
  let cost = Machine.Cost_model.default in
  let hier = Machine.Hierarchy.create cost in
  let cpu = Machine.Cpu.create ~code_base:Bt.Layout.code_cache_base ~mem ~hier ~cost () in
  let eas = ref [] and sizes = ref [] in
  let on_mem (ev : Bt.Interp.mem_event) =
    eas := ev.Bt.Interp.ea :: !eas;
    sizes := ev.Bt.Interp.size :: !sizes
  in
  let blocks = Hashtbl.create 256 in
  let pc = ref (W.Workload.entry w) and halted = ref false in
  while not !halted do
    let block =
      match Hashtbl.find_opt blocks !pc with
      | Some b -> b
      | None -> (
        match Bt.Block.discover mem ~pc:!pc with
        | Ok b ->
          Hashtbl.replace blocks !pc b;
          b
        | Error e -> failwith (Format.asprintf "%s: %a" bench Bt.Block.pp_error e))
    in
    match Bt.Interp.exec_block cpu (Bt.Interp.Interpreted { profile = false }) block ~on_mem with
    | Bt.Interp.Fallthrough next -> pc := next
    | Bt.Interp.Halted -> halted := true
  done;
  (Array.of_list (List.rev !eas), Array.of_list (List.rev !sizes))

let trace (_ : Bench.ctx) checks =
  let runs = setup () in
  let now = Measure.now in
  let rate count (s : Mda_util.Timing.sample) = Mda_util.Timing.per_sec ~count s in
  (* static analysis and AOT translation throughput over the three images *)
  let images =
    List.map
      (fun b ->
        let w = W.Workload.instantiate ~scale:1.0 b in
        (W.Workload.fresh_memory w, W.Workload.entry w))
      benches
  in
  let analyses = List.map (fun (mem, entry) -> A.Dataflow.analyze mem ~entry) images in
  let blocks = List.fold_left (fun n a -> n + a.A.Dataflow.blocks) 0 analyses in
  let analysis =
    Mda_util.Timing.measure ~now ~rounds:3 ~min_ns:200_000_000L (fun () ->
        List.iter (fun (mem, entry) -> ignore (A.Dataflow.analyze mem ~entry)) images)
  in
  let prepped = List.map2 (fun (mem, entry) a -> (mem, entry, A.Dataflow.summary a)) images analyses in
  let translate_all () =
    List.fold_left
      (fun n (mem, entry, summary) ->
        match Bt.Aot.translate_image ~summary ~unknown:Bt.Mechanism.Sa_seq mem ~entry with
        | Ok (_, s) -> n + s.Bt.Aot.blocks
        | Error e -> failwith e)
      0 prepped
  in
  let aot_blocks = translate_all () in
  let aot =
    Mda_util.Timing.measure ~now ~rounds:3 ~min_ns:200_000_000L (fun () -> ignore (translate_all ()))
  in
  (* the interpreter, timed as the oracle *)
  let oracles = oracles () in
  let guest, interp_s =
    List.fold_left
      (fun (g, t) (_, (_, (s : Bt.Run_stats.t), secs)) ->
        (Int64.add g s.Bt.Run_stats.guest_insns, t +. secs))
      (0L, 0.) oracles
  in
  (* the cache model, replaying one benchmark's data accesses *)
  let eas, sizes = data_stream replay_bench in
  let n_acc = Array.length eas in
  let cost = Machine.Cost_model.default in
  let replay () =
    let h = Machine.Hierarchy.create cost in
    for i = 0 to n_acc - 1 do
      ignore (Machine.Hierarchy.access_data h ~addr:eas.(i) ~size:sizes.(i))
    done
  in
  let hier = Mda_util.Timing.measure ~now ~rounds:5 ~min_ns:100_000_000L replay in
  let (), hier_words = Measure.minor_words replay in
  let hier_create_words = snd (Measure.minor_words (fun () -> ignore (Machine.Hierarchy.create cost))) in
  (* every run untraced, then at once its traced twin, so that a drift
     in machine speed lands on both; the twin must reproduce
     Runtime.run's statistics exactly *)
  let reference = Hashtbl.create 32 in
  let spans = Spans.create () in
  let words = ref 0. and untraced_s = ref 0. in
  let traced =
    List.map
      (fun r ->
        let (u, s), w = Measure.minor_words (fun () -> run_once checks oracles reference r) in
        words := !words +. w;
        untraced_s := !untraced_s +. s;
        Gc.full_major ();
        let rt, t = traced_run spans r in
        check_run checks oracles reference r t rt;
        Bench.check checks
          (Bt.Run_stats.to_kv u = Bt.Run_stats.to_kv t)
          (lazy (r.bench ^ "/" ^ r.mech ^ ": traced step loop statistics differ from Runtime.run"));
        t)
      runs
  in
  let host = host_insns traced in
  (* [loop]: the traced twins' wall time (every span but the image
     loads); [unattributed]: the part no layer span covers — the bench
     step loop's own bound check, counter reads and pc update, plus the
     timers. It is harness overhead, not the runtime's dispatch. *)
  let self = Spans.self_times spans in
  let self_of n = try List.assoc n self with Not_found -> 0. in
  let loop = List.fold_left (fun t (n, s) -> if n = "workloads.image" then t else t +. s) 0. self in
  let unattributed = self_of "bench.loop" in
  Bench.check checks
    (unattributed <= 0.05 *. loop)
    (lazy
      (Printf.sprintf "per-layer self-times cover only %.1f%% of the traced loop"
         (100. *. (1. -. (unattributed /. loop)))));
  let cpu_of m = self_of ("cpu." ^ m) in
  let cpu_total = List.fold_left (fun t m -> t +. cpu_of m) 0. mechs in
  let host_of m =
    List.fold_left2
      (fun n r (s : Bt.Run_stats.t) ->
        if r.mech = m then n + Int64.to_int s.Bt.Run_stats.host_insns else n)
      0 runs traced
  in
  let mips insns secs = Measure.single (float_of_int insns /. secs /. 1e6) in
  let steps =
    List.fold_left (fun n m -> n + Spans.count spans ("cpu." ^ m)) (Spans.count spans "interp") mechs
  in
  let traps =
    List.fold_left (fun n (s : Bt.Run_stats.t) -> n + Int64.to_int s.Bt.Run_stats.traps) 0 traced
  in
  let handler_calls = Spans.count spans "handler" in
  [ ("analysis.blocks_per_s", Measure.single (rate blocks analysis));
    ("aot.blocks_per_s", Measure.single (rate aot_blocks aot));
    ("interp.guest_mips", Measure.single (Int64.to_float guest /. interp_s /. 1e6));
    ("cpu.host_mips", mips host cpu_total) ]
  @ List.map (fun m -> ("cpu.host_mips." ^ m, mips (host_of m) (cpu_of m))) mechs
  @ [ ("cpu.minor_words_per_host_insn", Measure.single (!words /. float_of_int host));
      ( "hierarchy.ns_per_data_access",
        Measure.single (hier.Mda_util.Timing.median_ns /. float_of_int n_acc) );
      ( "hierarchy.minor_words_per_data_access",
        Measure.single ((hier_words -. hier_create_words) /. float_of_int n_acc) );
      ("runtime.dispatch_steps", Measure.single (float_of_int steps));
      ("bench.loop_ns_per_step", Measure.single (1e9 *. unattributed /. float_of_int steps));
      ("runtime.traps", Measure.single (float_of_int traps));
      ( "runtime.handler_ns_per_trap",
        Measure.single (1e9 *. self_of "handler" /. float_of_int (max 1 handler_calls)) );
      ("runtime.translate_share", Measure.single (100. *. self_of "translate" /. loop));
      (Bench.trace_overhead name, Bench.overhead_pct ~traced:loop ~untraced:!untraced_s) ]

let workload = { Bench.name; layers; measure; trace }
