(* The mechanism registry: mechanism configurations by specification,
   the two label families, and the single preparation step.

   Every experiment reduces to "run a workload under one configuration";
   this module is the one place a configuration is spelled out, labelled
   and prepared. *)

module Bt = Mda_bt
module Mechanism = Mda_bt.Mechanism
module Dataflow = Mda_analysis.Dataflow

type t =
  | Direct
  | Static_profiling
  | Dynamic_profiling of { threshold : int }
  | Exception_handling of { rearrange : bool }
  | Dpeh of { threshold : int; retranslate : int option; multiversion : bool }
  | Static_analysis of { unknown : Mechanism.sa_policy }
  | Aot of { unknown : Mechanism.sa_policy }

type kind = Mech of t | Interp of { native : bool }

let policy_name = function Mechanism.Sa_seq -> "seq" | Mechanism.Sa_fallback -> "eh"

let describe = function
  | Direct -> "direct"
  | Static_profiling -> "static-profiling(train)"
  | Dynamic_profiling { threshold } -> Printf.sprintf "dynamic(th=%d)" threshold
  | Exception_handling { rearrange } -> Printf.sprintf "eh(rearrange=%b)" rearrange
  | Dpeh { threshold; retranslate; multiversion } ->
    Printf.sprintf "dpeh(th=%d,retrans=%s,mv=%b)" threshold
      (match retranslate with None -> "none" | Some n -> string_of_int n)
      multiversion
  | Static_analysis { unknown } -> Printf.sprintf "sa(unknown=%s)" (policy_name unknown)
  | Aot { unknown } -> Printf.sprintf "aot(unknown=%s)" (policy_name unknown)

let with_heating threshold = function
  | Dynamic_profiling _ -> Dynamic_profiling { threshold }
  | Dpeh d -> Dpeh { d with threshold }
  | (Direct | Static_profiling | Exception_handling _ | Static_analysis _ | Aot _) as s -> s

(* --- the label families ------------------------------------------------- *)

let best_dynamic = Dynamic_profiling { threshold = Mechanism.default_heating }

let best_eh = Exception_handling { rearrange = false }

let best_dpeh =
  Dpeh { threshold = Mechanism.default_heating; retranslate = Some 4; multiversion = true }

let run_labels =
  [ ("direct", Mech Direct);
    ("static", Mech Static_profiling);
    ("dynamic", Mech best_dynamic);
    ("eh", Mech best_eh);
    ("eh+rearrange", Mech (Exception_handling { rearrange = true }));
    ("dpeh", Mech best_dpeh);
    ("sa", Mech (Static_analysis { unknown = Mechanism.Sa_fallback }));
    ("sa-seq", Mech (Static_analysis { unknown = Mechanism.Sa_seq }));
    ("aot", Mech (Aot { unknown = Mechanism.Sa_seq }));
    ("interp", Interp { native = false });
    ("native", Interp { native = true }) ]

let stress_labels =
  [ ("direct", Direct);
    ("static-profiling", Static_profiling);
    ("dynamic-profiling", Dynamic_profiling { threshold = 3 });
    ("eh", Exception_handling { rearrange = true });
    ("dpeh", Dpeh { threshold = 2; retranslate = Some 2; multiversion = true });
    ("sa", Static_analysis { unknown = Mechanism.Sa_fallback });
    ("sa-seq", Static_analysis { unknown = Mechanism.Sa_seq });
    ("aot", Aot { unknown = Mechanism.Sa_fallback }) ]

let parse table s =
  match List.assoc_opt (String.lowercase_ascii s) table with
  | Some v -> Ok v
  | None -> Error (`Msg (Printf.sprintf "unknown mechanism %S" s))

let print table v =
  match List.find_opt (fun (_, v') -> v' = v) table with
  | Some (label, _) -> label
  | None -> invalid_arg "Mech_spec.print: configuration has no label"

let parse_run = parse run_labels
let print_run = print run_labels
let parse_stress = parse stress_labels
let print_stress = print stress_labels

let run_conv =
  Cmdliner.Arg.conv (parse_run, fun fmt k -> Format.pp_print_string fmt (print_run k))

(* --- preparation -------------------------------------------------------- *)

type subject = {
  name : string;
  image : unit -> int * Mda_machine.Memory.t;
  train : unit -> int * Mda_machine.Memory.t;
}

type prepared = {
  mechanism : Mechanism.t;
  analysis : Dataflow.t option;
  aot : (Bt.Code_cache.t * Bt.Aot.stats) option;
}

let plain = function
  | Direct -> Mechanism.Direct
  | Dynamic_profiling { threshold } -> Mechanism.Dynamic_profiling { threshold }
  | Exception_handling { rearrange } -> Mechanism.Exception_handling { rearrange }
  | Dpeh { threshold; retranslate; multiversion } ->
    Mechanism.Dpeh { threshold; retranslate; multiversion }
  | (Static_profiling | Static_analysis _ | Aot _) as s ->
    invalid_arg ("Mech_spec.plain: " ^ describe s ^ " needs preparation")

(* The FX!32 protocol: profile the train input, ship the summary. *)
let train_summary s =
  let entry, mem = s.train () in
  let _, profile =
    Bt.Runtime.interpret_program ~mode:(Bt.Interp.Interpreted { profile = true }) ~mem
      ~entry ()
  in
  Bt.Profile.summarize profile

let analyze ?mode s =
  let entry, mem = s.image () in
  Dataflow.analyze ?mode mem ~entry

let prepare ?mode ?rules s spec =
  match spec with
  | Static_profiling ->
    { mechanism = Mechanism.Static_profiling (train_summary s); analysis = None; aot = None }
  | Static_analysis { unknown } ->
    let a = analyze ?mode s in
    { mechanism = Mechanism.Static_analysis { summary = Dataflow.summary a; unknown };
      analysis = Some a;
      aot = None }
  | Aot { unknown } -> (
    let entry, mem = s.image () in
    let a = Dataflow.analyze ?mode mem ~entry in
    let summary = Dataflow.summary a in
    match Bt.Aot.translate_image ?rules ~summary ~unknown mem ~entry with
    | Error msg ->
      (* an unlowerable instruction (or undecodable code) is a property
         of the input image, not an internal error — surface it the way
         the dynamic runtime surfaces a mid-run lowering failure *)
      raise
        (Bt.Runtime.Runtime_error
           (Printf.sprintf "AOT translation of %s failed: %s" s.name msg))
    | Ok built ->
      { mechanism = Mechanism.Aot { summary; unknown }; analysis = Some a; aot = Some built })
  | Direct | Dynamic_profiling _ | Exception_handling _ | Dpeh _ ->
    { mechanism = plain spec; analysis = None; aot = None }
