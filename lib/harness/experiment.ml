(* Shared machinery for the per-table/per-figure experiment runners.

   Every experiment follows the paper's protocol (Section V/VI):
   - workloads are the 21 selected benchmarks (significant MDA counts);
   - each mechanism is configured at its best setting for the overall
     comparison (static profiling = train-input profile; dynamic
     profiling = heating threshold 50);
   - results are normalized runtimes (cycles), so only ratios matter. *)

module W = Mda_workloads
module Bt = Mda_bt
module Spec = Mda_mech.Mech_spec

type options = {
  scale : float; (* workload volume multiplier *)
  benchmarks : string list; (* defaults to the 21 selected *)
  exec : Exec.t option; (* shared plan-then-execute context, if any *)
}

let default_options = { scale = 1.0; benchmarks = W.Spec.selected_names; exec = None }

(* Runners go through an Exec even when the caller supplied none: a
   fresh sequential context preserves the old inline behaviour while
   still deduping repeated cells within the experiment. *)
let exec_of opts = match opts.exec with Some e -> e | None -> Exec.create ()

(* Prepare [spec] for one benchmark and run it on a fresh machine, as
   the paper measures whole executions. The runtime and the preparation
   are returned alongside the statistics so callers can inspect the code
   cache (the invariant checker does), the analysis and the AOT
   translation afterwards. *)
let run_spec_rt ?(scale = 1.0) ?(input = W.Gen.Ref) ?sink ?mode ?rules spec name =
  let p = Spec.prepare ?mode ?rules (Cell.subject ~scale ~input name) spec in
  let w = W.Workload.instantiate ~scale ~input name in
  let mem = W.Workload.fresh_memory w in
  let on_event = Option.map Mda_obs.Trace.hook sink in
  let config = { (Bt.Runtime.default_config p.Spec.mechanism) with on_event; rules } in
  let t = Bt.Runtime.create ~config ?cache:(Option.map fst p.Spec.aot) ~mem () in
  Option.iter (fun s -> Mda_obs.Trace.attach s t) sink;
  let stats = Bt.Runtime.run t ~entry:(W.Workload.entry w) in
  (stats, t, p)

(* Static alignment analysis of a benchmark's program image — no
   execution, no profile: what the translator gets to see. [mode]
   selects the interprocedural (default) or the baseline
   intraprocedural engine. *)
let sa_analyze ?(scale = 1.0) ?(input = W.Gen.Ref) ?mode name =
  Spec.analyze ?mode (Cell.subject ~scale ~input name)

(* The SA-guided mechanism at the given unknown-operand policy. *)
let sa_mechanism ?(scale = 1.0) ?(input = W.Gen.Ref) ?(unknown = Bt.Mechanism.Sa_fallback)
    name =
  Cell.mechanism_of_spec ~scale ~input name (Cell.Static_analysis { unknown })

(* Best configurations for the overall comparison (paper Section VI-C),
   as cell specs for the runners and as mechanisms. *)
let best_dynamic_spec = Spec.best_dynamic

let best_eh_spec = Spec.best_eh

let best_dpeh_spec = Spec.best_dpeh

let dpeh_plain_spec = Cell.Dpeh { threshold = 50; retranslate = None; multiversion = false }

let best_dynamic = Spec.plain best_dynamic_spec

let best_eh = Spec.plain best_eh_spec

let best_dpeh = Spec.plain best_dpeh_spec

let cycles (s : Bt.Run_stats.t) = Int64.to_float s.cycles

(* Normalized runtime: value / baseline (paper convention: >1 is slower
   than the baseline). *)
let normalized ~baseline v = v /. baseline

(* Signed performance gain of [v] over [baseline] in percent (positive =
   faster), the paper's "performance gain/loss" convention. *)
let gain_pct ~baseline v = (baseline /. v -. 1.0) *. 100.0

let pct fmt_v = Printf.sprintf "%.1f%%" fmt_v

let f2 v = Printf.sprintf "%.2f" v

(* Geometric mean helper for the summary rows. *)
let geomean = Mda_util.Stats.geomean

type rendered = { title : string; table : Mda_util.Tabular.t; notes : string list }

let render { title; table; notes } =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  Buffer.add_string buf (Mda_util.Tabular.render table);
  List.iter (fun n -> Buffer.add_string buf ("note: " ^ n ^ "\n")) notes;
  Buffer.contents buf

let to_csv { table; _ } = Mda_util.Tabular.to_csv table
