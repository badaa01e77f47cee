(* The check core of both chaos runners and the tests. *)

module Bt = Mda_bt
module Machine = Mda_machine
module A = Mda_analysis
module Obs = Mda_obs

type state = { regs : int64 array; mem : string (* Digest *) }

let state (cpu : Machine.Cpu.t) =
  { regs = Array.init 8 (fun i -> if i = 4 then 0L else Machine.Cpu.get cpu i);
    mem = Machine.Memory.digest cpu.Machine.Cpu.mem }

let state_eq a b = a.regs = b.regs && String.equal a.mem b.mem

let interpret (entry, mem) =
  let t = Bt.Runtime.create ~mem () in
  let _ = Bt.Runtime.interpret t ~entry in
  state t.Bt.Runtime.cpu

let replay_problem ~mechanism ~bench ~stats sink =
  match Obs.Trace.of_jsonl (Obs.Trace.to_jsonl ~mechanism ~bench ~scale:1.0 ~stats sink) with
  | Error e -> Some ("trace does not parse: " ^ e)
  | Ok file -> (
    match Obs.Trace.replay file with
    | Error e -> Some ("trace does not replay: " ^ e)
    | Ok replayed ->
      if replayed = stats then None else Some "replayed stats differ from the run's own")

let selfcheck_problem report =
  match report.A.Check.violations with
  | [] -> None
  | v :: _ as vs ->
    Some
      (Format.asprintf "selfcheck: %d violation(s), first: %a" (List.length vs)
         A.Check.pp_violation v)

let sweep ~jobs ~mechs ~seed ~plans ~draw ~check ~worker_failed =
  let rng = Mda_util.Rng.create (Int64.of_int seed) in
  let ps = List.init plans (fun id -> draw ~rng ~id) in
  let cells = List.concat_map (fun p -> List.map (fun m -> (p, m)) mechs) ps in
  let results = Mda_harness.Pool.map ~jobs ~f:(fun (p, mech) -> check p ~mech) cells in
  List.mapi
    (fun i (p, m) ->
      match results.(i) with Ok o -> o | Error e -> worker_failed p m ("worker: " ^ e))
    cells
