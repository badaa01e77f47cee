(* One experiment cell: the unit of work of the parallel runner and the
   key of the persistent result cache.

   A cell is a *specification*, not a prepared run: mechanisms that need
   per-benchmark preparation (train-input profiles, static alignment
   analysis) name the preparation rather than carry its product, so a
   cell is small, deterministic, and content-addressable, and the
   preparation happens inside whichever worker computes the cell.

   This module also holds the run driver ([run]): the one place outside
   the core and the serving layer that turns a spec and a subject into a
   finished BT run, so every mechanism is measured under one protocol. *)

module W = Mda_workloads
module Bt = Mda_bt
module Spec = Mda_mech.Mech_spec

(* Mechanism by specification: the registry's type, re-exported so
   experiments name specs as [Cell.Direct], [Cell.Static_profiling], ... *)
type mech_spec = Spec.t =
  | Direct
  | Static_profiling
  | Dynamic_profiling of { threshold : int }
  | Exception_handling of { rearrange : bool }
  | Dpeh of { threshold : int; retranslate : int option; multiversion : bool }
  | Static_analysis of { unknown : Bt.Mechanism.sa_policy }
  | Aot of { unknown : Bt.Mechanism.sa_policy }

(* a full BT run under a mechanism, or the ground-truth interpreter run
   with its profile dump *)
type kind = Spec.kind

type t = {
  bench : string;
  scale : float;
  input : W.Gen.input;
  variant : W.Workload.variant; (* native runs only, see [native] *)
  kind : kind;
  chaining : bool;
  capacity : int option; (* bounded code cache, in live host insns *)
  rules : Mda_host.Peephole.t option;
      (* peephole rules as plain data (not [active]) so cells marshal
         across worker processes; [compute] activates them *)
  flush_policy : Bt.Runtime.flush_policy; (* what a retranslation evicts *)
}

let make ?(input = W.Gen.Ref) ?(chaining = true) ?capacity ?rules
    ?(flush_policy = Bt.Runtime.Block_granularity) ~scale kind bench =
  { bench; scale; input; variant = W.Workload.Default; kind; chaining; capacity; rules;
    flush_policy }

let mech ?input ?chaining ?capacity ?rules ?flush_policy ~scale spec bench =
  make ?input ?chaining ?capacity ?rules ?flush_policy ~scale (Spec.Mech spec) bench

(* No [?chaining]: an interpreter run has no chains, so the knob could
   only split one result across two keys. *)
let interp ?input ~scale bench = make ?input ~scale (Spec.Interp { native = false }) bench

(* Only a native cell takes a program variant: the recompiled binary is
   meaningful only for native-x86 runs (Workload.variant), and a Mech
   cell prepares against the default image, so it must run that image. *)
let native ?input ?(variant = W.Workload.Default) ~scale bench =
  { (make ?input ~scale (Spec.Interp { native = true }) bench) with variant }

(* --- canonical description (cache-key material) ------------------------ *)

let kind_describe = function
  | Spec.Mech m -> "mech:" ^ Spec.describe m
  | Spec.Interp { native } -> if native then "native" else "interp"

(* Injective over everything that can change a cell's result; %h prints
   floats losslessly. v2 added the bounded-cache capacity; v3 the
   peephole rule-file digest, so a changed rule file can never alias a
   cached result mined under different rules; v4 drops the trap-cost
   override (cells always run the default cost model). Only a
   [Full_flush] cell names its flush policy: the default adds nothing,
   which keeps every other key stable. *)
let describe t =
  Printf.sprintf
    "cell-v4 bench=%s scale=%h input=%s variant=%s kind=%s chain=%b cap=%s rules=%s%s"
    t.bench t.scale
    (match t.input with W.Gen.Train -> "train" | W.Gen.Ref -> "ref")
    (match t.variant with W.Workload.Default -> "default" | W.Workload.Aligned_opt -> "aligned-opt")
    (kind_describe t.kind)
    t.chaining
    (match t.capacity with None -> "unbounded" | Some c -> string_of_int c)
    (match t.rules with None -> "none" | Some rs -> Mda_host.Peephole.digest rs)
    (match t.flush_policy with
    | Bt.Runtime.Block_granularity -> ""
    | Bt.Runtime.Full_flush -> " flush=full")

(* --- results ----------------------------------------------------------- *)

(* Interp cells also return the alignment profile (Table I's NMI,
   Figure 15's bias classes, shared-library attribution), dumped to a
   plain sorted array so results marshal across processes and serialize
   stably to disk. *)
type site = { addr : int; refs : int; mdas : int }

type result = { stats : Bt.Run_stats.t; sites : site array }

let dump_profile profile =
  let acc = ref [] in
  Bt.Profile.iter_sites profile (fun addr s ->
      acc := { addr; refs = s.Bt.Profile.refs; mdas = s.Bt.Profile.mdas } :: !acc);
  let arr = Array.of_list !acc in
  Array.sort (fun a b -> compare a.addr b.addr) arr;
  arr

(* NMI over a dumped profile (sites with at least one MDA). *)
let nmi sites = Array.fold_left (fun n s -> if s.mdas > 0 then n + 1 else n) 0 sites

(* --- computing a cell --------------------------------------------------- *)

(* A benchmark as a preparation subject: the program image under [input]
   (the binary is input-independent, so any input serves the analysis)
   and under the train input. *)
let subject ?(input = W.Gen.Ref) ~scale bench =
  let load input () =
    let w = W.Workload.instantiate ~scale ~input bench in
    (W.Workload.entry w, W.Workload.fresh_memory w)
  in
  { Spec.name = bench; image = load input; train = load W.Gen.Train }

let mechanism_of_spec ~scale ~input bench spec =
  (Spec.prepare (subject ~scale ~input bench) spec).Spec.mechanism

(* The run driver. The paper measures whole executions, each on a fresh
   machine, so one protocol serves every caller: prepare the spec, load
   a fresh image, configure, run. The sink's hook is part of the config
   handed to [configure]; the rules feed both the AOT translation and
   the runtime's translations, so their hit counters cover both. *)
let run ?sink ?mode ?rules ?(configure = Fun.id) subject spec =
  let p = Spec.prepare ?mode ?rules subject spec in
  let entry, mem = subject.Spec.image () in
  let on_event = Option.map Mda_obs.Trace.hook sink in
  let config =
    configure { (Bt.Runtime.default_config p.Spec.mechanism) with on_event; rules }
  in
  let rt = Bt.Runtime.create ~config ?cache:(Option.map fst p.Spec.aot) ~mem () in
  Option.iter (fun s -> Mda_obs.Trace.attach s rt) sink;
  (Bt.Runtime.run rt ~entry, rt, p)

(* [?sink] attaches a trace sink (cycle-stamped BT events) to Mech
   cells. Tracing is an observation artifact: the returned result is
   bit-identical with and without a sink, which is what keeps traced
   runs compatible with the result cache. Interp cells execute no BT
   events, so their trace is empty by construction. *)
let compute ?sink t =
  match t.kind with
  | Spec.Interp { native } ->
    let w =
      W.Workload.instantiate ~scale:t.scale ~input:t.input ~variant:t.variant t.bench
    in
    let mode = if native then Bt.Interp.Native else Bt.Interp.Interpreted { profile = true } in
    let stats, profile =
      Bt.Runtime.interpret_program ~mode ~mem:(W.Workload.fresh_memory w)
        ~entry:(W.Workload.entry w) ()
    in
    { stats; sites = dump_profile profile }
  | Spec.Mech spec ->
    let configure c =
      { c with
        Bt.Runtime.chaining = t.chaining;
        flush_policy = t.flush_policy;
        faults = { Bt.Runtime.no_faults with cache_capacity = t.capacity } }
    in
    let stats, _, _ =
      run ?sink ?rules:(Option.map Mda_host.Peephole.activate t.rules) ~configure
        (subject ~scale:t.scale ~input:t.input t.bench)
        spec
    in
    { stats; sites = [||] }

(* Compute a Mech cell with a fresh unbounded sink; returns the result
   plus the complete JSONL trace of the run. *)
let compute_traced t =
  let sink = Mda_obs.Trace.create () in
  let r = compute ~sink t in
  let jsonl =
    Mda_obs.Trace.to_jsonl
      ~mechanism:(kind_describe t.kind)
      ~bench:t.bench ~scale:t.scale ~stats:r.stats sink
  in
  (r, jsonl)
