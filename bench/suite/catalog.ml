(* The four workloads, in the order the suite runs them. *)

let workloads =
  [ Paper_regen.workload; Exec_mech.workload; Translate_corpus.workload; Serve_mix.workload ]

(* Every per-layer metric any workload measures. *)
let layers = List.concat_map (fun (w : Bench.workload) -> w.Bench.layers) workloads
