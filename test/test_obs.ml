(* The observability layer: JSONL traces round-trip losslessly, replay
   reconstructs a run's statistics exactly for every mechanism (the
   event stream is a tested invariant), tampered traces are rejected,
   ring-buffer sinks account for what they drop, tracing never changes
   a run's result, and traces are byte-identical whatever the worker
   count and whatever the result cache served. *)

module H = Mda_harness
module Bt = Mda_bt
module Obs = Mda_obs

let bench = "410.bwaves"

let scale = 0.05

(* The six paper mechanisms, as cell specs. *)
let mech_specs =
  [ ("direct", H.Cell.Direct);
    ("static", H.Cell.Static_profiling);
    ("dynamic", H.Cell.Dynamic_profiling { threshold = 50 });
    ("eh", H.Cell.Exception_handling { rearrange = false });
    ("dpeh", H.Cell.Dpeh { threshold = 0; retranslate = Some 4; multiversion = true });
    ("sa", H.Cell.Static_analysis { unknown = Bt.Mechanism.Sa_fallback }) ]

let cell_of spec = H.Cell.mech ~scale spec bench

let eh_cell = cell_of (H.Cell.Exception_handling { rearrange = false })

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* replace the first occurrence of [sub] with [by]; fails the test if
   [sub] does not occur (a tamper that misses proves nothing) *)
let replace_once ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec find i = if i + n > m then None else if String.sub s i n = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> Alcotest.failf "tamper target %S not found in trace" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)

(* --- round-trip --------------------------------------------------------- *)

let test_jsonl_round_trip () =
  let r, jsonl = H.Cell.compute_traced eh_cell in
  match Obs.Trace.of_jsonl jsonl with
  | Error e -> Alcotest.failf "own trace failed to parse: %s" e
  | Ok f ->
    Alcotest.(check int) "schema version" Obs.Trace.schema_version f.Obs.Trace.version;
    Alcotest.(check string) "bench" bench f.Obs.Trace.bench;
    Alcotest.(check bool) "stats round-trip" true (f.Obs.Trace.stats = r.H.Cell.stats);
    Alcotest.(check bool) "events present" true (List.length f.Obs.Trace.events > 0);
    Alcotest.(check bool) "a trap was traced" true
      (List.exists
         (fun rc -> Bt.Runtime.event_kind rc.Obs.Trace.ev = "trap")
         f.Obs.Trace.events);
    (* cycle stamps read the simulated clock: monotone non-decreasing *)
    let rec monotone = function
      | a :: (b :: _ as rest) -> a.Obs.Trace.cycles <= b.Obs.Trace.cycles && monotone rest
      | _ -> true
    in
    Alcotest.(check bool) "cycle stamps monotone" true (monotone f.Obs.Trace.events);
    (* serializing the parsed events again reproduces the input bytes *)
    let sink = Obs.Trace.create () in
    List.iter
      (fun rc ->
        Obs.Trace.set_clock sink (fun () -> rc.Obs.Trace.cycles);
        Obs.Trace.push sink rc.Obs.Trace.ev)
      f.Obs.Trace.events;
    let jsonl2 =
      Obs.Trace.to_jsonl ~mechanism:f.Obs.Trace.mechanism ~bench:f.Obs.Trace.bench ~scale
        ~stats:f.Obs.Trace.stats sink
    in
    Alcotest.(check string) "re-serialization byte-identical" jsonl jsonl2

(* --- replay: the tentpole invariant ------------------------------------- *)

let test_replay_reconstructs_all_mechanisms () =
  List.iter
    (fun (name, spec) ->
      let r, jsonl = H.Cell.compute_traced (cell_of spec) in
      match Obs.Trace.of_jsonl jsonl with
      | Error e -> Alcotest.failf "%s: trace unparsable: %s" name e
      | Ok f -> (
        match Obs.Trace.replay f with
        | Error e -> Alcotest.failf "%s: replay failed: %s" name e
        | Ok stats ->
          Alcotest.(check bool)
            (name ^ ": replay equals the run's stats")
            true (stats = r.H.Cell.stats)))
    mech_specs

let test_tampered_trace_rejected () =
  let r, jsonl = H.Cell.compute_traced eh_cell in
  let is_error = function Error _ -> true | Ok _ -> false in
  (* tamper 1: bump, one at a time, each end-record count the event
     stream determines — the file still parses, replay must catch the
     disagreement and name the field *)
  let footer = Bt.Run_stats.to_kv r.H.Cell.stats in
  List.iter
    (fun name ->
      let v = Int64.of_string (List.assoc name footer) in
      let tampered =
        replace_once
          ~sub:(Printf.sprintf {|"%s":"%Ld"|} name v)
          ~by:(Printf.sprintf {|"%s":"%Ld"|} name (Int64.succ v))
          jsonl
      in
      match Obs.Trace.of_jsonl tampered with
      | Error e -> Alcotest.failf "%s: tampered footer should still parse: %s" name e
      | Ok f -> (
        match Obs.Trace.replay f with
        | Ok _ -> Alcotest.failf "%s: count disagreement not caught by replay" name
        | Error e ->
          Alcotest.(check bool)
            (name ^ ": the error names the field") true
            (contains ~sub:(name ^ ": events say") e)))
    [ "translations"; "retranslations"; "rearrangements"; "chains"; "patches"; "evictions";
      "patch_faults"; "degraded"; "traps" ];
  (* tamper 2: delete one event line — the header count disagrees *)
  let lines = String.split_on_char '\n' jsonl in
  let without_one_event =
    let dropped = ref false in
    List.filter
      (fun l ->
        if (not !dropped) && String.length l > 9 && String.sub l 0 9 = {|{"t":"ev"|} then begin
          dropped := true;
          false
        end
        else true)
      lines
    |> String.concat "\n"
  in
  Alcotest.(check bool) "missing event rejected" true
    (is_error (Obs.Trace.of_jsonl without_one_event));
  (* tamper 3: a garbled line *)
  Alcotest.(check bool) "garbled line rejected" true
    (is_error (Obs.Trace.of_jsonl (replace_once ~sub:{|"k":"trap"|} ~by:{|"k":trap|} jsonl)));
  (* tamper 4: an unknown schema version *)
  Alcotest.(check bool) "future schema version rejected" true
    (is_error
       (Obs.Trace.of_jsonl
          (replace_once
             ~sub:(Printf.sprintf {|"version":%d|} Obs.Trace.schema_version)
             ~by:{|"version":99|} jsonl)));
  (* tamper 5: a v1 trace (pre-fault-injection schema) must be refused
     with a message that says what to do about it *)
  (match
     Obs.Trace.of_jsonl
       (replace_once
          ~sub:(Printf.sprintf {|"version":%d|} Obs.Trace.schema_version)
          ~by:{|"version":1|} jsonl)
   with
  | Ok _ -> Alcotest.fail "v1 trace should be rejected"
  | Error e ->
    Alcotest.(check bool) "v1 rejection names the version" true
      (contains ~sub:"unsupported schema version 1" e);
    Alcotest.(check bool) "v1 rejection says to regenerate" true
      (contains ~sub:"regenerate" e));
  (* tamper 5: truncation (no end record) *)
  let truncated =
    String.concat "\n" (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' jsonl))
  in
  Alcotest.(check bool) "truncated trace rejected" true
    (is_error (Obs.Trace.of_jsonl truncated))

(* --- ring-buffer sinks -------------------------------------------------- *)

let test_ring_buffer_drops_and_counts () =
  let sink = Obs.Trace.create ~capacity:3 () in
  let ev i = Bt.Runtime.Ev_chain { at = i; target_block = i } in
  for i = 1 to 5 do
    Obs.Trace.set_clock sink (fun () -> Int64.of_int i);
    Obs.Trace.push sink (ev i)
  done;
  Alcotest.(check int) "length capped" 3 (Obs.Trace.length sink);
  Alcotest.(check int) "dropped counted" 2 (Obs.Trace.dropped sink);
  (* the survivors are the most recent events, oldest first *)
  let stamps = List.map (fun r -> r.Obs.Trace.cycles) (Obs.Trace.records sink) in
  Alcotest.(check bool) "ring keeps the tail" true (stamps = [ 3L; 4L; 5L ]);
  (* an incomplete (dropping) trace is not accepted as a replay source *)
  let stats = (H.Cell.compute eh_cell).H.Cell.stats in
  let jsonl = Obs.Trace.to_jsonl ~mechanism:"eh" ~bench ~scale ~stats sink in
  match Obs.Trace.of_jsonl jsonl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a trace with dropped events must be rejected"

(* --- tracing is free when off, and pure observation when on ------------- *)

let test_tracing_does_not_change_results () =
  List.iter
    (fun (name, spec) ->
      let plain = H.Cell.compute (cell_of spec) in
      let traced, _ = H.Cell.compute_traced (cell_of spec) in
      Alcotest.(check bool) (name ^ ": stats identical with tracing") true
        (plain.H.Cell.stats = traced.H.Cell.stats))
    [ List.nth mech_specs 0; List.nth mech_specs 3; List.nth mech_specs 4 ]

(* --- determinism -------------------------------------------------------- *)

(* Traces must be byte-identical across worker counts: the trace is part
   of the run, not of the scheduling. ≥3 mechanisms as required. *)
let test_trace_deterministic_across_jobs () =
  let cells =
    List.map
      (fun (_, spec) -> cell_of spec)
      [ List.nth mech_specs 0; List.nth mech_specs 3; List.nth mech_specs 4 ]
  in
  let traces jobs =
    H.Pool.map ~jobs ~f:(fun c -> snd (H.Cell.compute_traced c)) cells
    |> Array.to_list
    |> List.map (function Ok t -> t | Error e -> Alcotest.failf "worker failed: %s" e)
  in
  let seq = traces 1 and par = traces 3 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d: jobs=1 and jobs=3 traces byte-identical" i)
        true (a = b))
    (List.combine seq par)

(* Serving the *results* from the persistent cache must not change the
   trace a re-traced run produces. *)
let test_trace_deterministic_across_cache () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mda_obs_test_%d" (Unix.getpid ()))
  in
  let cells =
    List.map
      (fun (_, spec) -> cell_of spec)
      [ List.nth mech_specs 0; List.nth mech_specs 3; List.nth mech_specs 4 ]
  in
  let first = List.map (fun c -> snd (H.Cell.compute_traced c)) cells in
  (* populate the cache, then prove a second Exec is served from it *)
  let ex = H.Exec.create ~cache:(H.Result_cache.create ~dir ()) () in
  H.Exec.prefetch ex cells;
  let ex2 = H.Exec.create ~cache:(H.Result_cache.create ~dir ()) () in
  H.Exec.prefetch ex2 cells;
  Alcotest.(check int) "re-run served from cache" (List.length cells)
    (H.Exec.counters ex2).H.Exec.cache_hits;
  (* cached stats agree with the traced runs' footers... *)
  List.iter2
    (fun c t ->
      match Obs.Trace.of_jsonl t with
      | Error e -> Alcotest.failf "trace unparsable: %s" e
      | Ok f ->
        Alcotest.(check bool) "cache-served stats equal trace footer" true
          ((H.Exec.get ex2 c).H.Cell.stats = f.Obs.Trace.stats))
    cells first;
  (* ...and re-tracing after the cache was populated is byte-identical *)
  let second = List.map (fun c -> snd (H.Cell.compute_traced c)) cells in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d: trace identical after cache population" i)
        true (a = b))
    (List.combine first second)

(* --- attribution -------------------------------------------------------- *)

let test_attribution_accounts_every_event () =
  let r, jsonl = H.Cell.compute_traced eh_cell in
  match Obs.Trace.of_jsonl jsonl with
  | Error e -> Alcotest.failf "trace unparsable: %s" e
  | Ok f ->
    let cost = Mda_machine.Cost_model.default in
    let attr = Obs.Attribution.of_records ~cost f.Obs.Trace.events in
    let sites = Obs.Attribution.sites attr in
    let sum g = List.fold_left (fun acc s -> acc + g s) 0 sites in
    Alcotest.(check int) "traps+fixups attributed" (Int64.to_int r.H.Cell.stats.Bt.Run_stats.traps)
      (sum (fun s -> s.Obs.Attribution.traps) + sum (fun s -> s.Obs.Attribution.fixups));
    Alcotest.(check int) "patches attributed" r.H.Cell.stats.Bt.Run_stats.patches
      (sum (fun s -> s.Obs.Attribution.patches));
    Alcotest.(check int) "mda cycles = traps*trap + patches*patch"
      ((Int64.to_int r.H.Cell.stats.Bt.Run_stats.traps * cost.Mda_machine.Cost_model.align_trap)
      + (r.H.Cell.stats.Bt.Run_stats.patches * cost.Mda_machine.Cost_model.patch))
      (Obs.Attribution.total_mda_cycles attr);
    let blocks = Obs.Attribution.blocks attr in
    Alcotest.(check int) "translations attributed"
      r.H.Cell.stats.Bt.Run_stats.translations
      (List.fold_left (fun acc b -> acc + b.Obs.Attribution.translations) 0 blocks);
    (* table rendering honours ?top *)
    let rows tbl = List.length (Mda_util.Tabular.rows tbl) in
    Alcotest.(check bool) "site table bounded by top" true
      (rows (Obs.Attribution.site_table ~top:2 attr) <= 2)

(* OS fixups with no site record ([guest_addr = -1]) must surface as an
   explicit <unattributed> row — pinned past ?top truncation — so the
   per-site fixup counts always sum to the Run_stats footer. *)
let test_attribution_unattributed_row () =
  let cost = Mda_machine.Cost_model.default in
  let r ev = { Obs.Trace.cycles = 0L; sid = None; ev } in
  let records =
    [ r (Bt.Runtime.Ev_trap { host_pc = 10; guest_addr = 0x100; ea = 0 });
      r (Bt.Runtime.Ev_trap { host_pc = 11; guest_addr = 0x200; ea = 0 });
      r (Bt.Runtime.Ev_os_fixup { host_pc = 12; guest_addr = -1; ea = 3 });
      r (Bt.Runtime.Ev_os_fixup { host_pc = 12; guest_addr = -1; ea = 7 });
      r (Bt.Runtime.Ev_os_fixup { host_pc = 13; guest_addr = 0x100; ea = 5 });
      r (Bt.Runtime.Ev_patch_fault { host_pc = 11; guest_addr = 0x200; attempt = 1 });
      r (Bt.Runtime.Ev_degrade { guest_addr = 0x200; attempts = 1 }) ]
  in
  let attr = Obs.Attribution.of_records ~cost records in
  let sites = Obs.Attribution.sites attr in
  let sum g = List.fold_left (fun acc s -> acc + g s) 0 sites in
  (* all 5 hardware traps accounted: 2 traps + 3 fixups (one of them
     unattributed) *)
  Alcotest.(check int) "fixups sum includes unattributed" 3
    (sum (fun s -> s.Obs.Attribution.fixups));
  Alcotest.(check int) "traps sum" 2 (sum (fun s -> s.Obs.Attribution.traps));
  (* patch faults and degradation land on the right site, cost-free *)
  let site a = List.find (fun s -> s.Obs.Attribution.guest_addr = a) sites in
  Alcotest.(check int) "patch fault attributed" 1 (site 0x200).Obs.Attribution.patch_faults;
  Alcotest.(check bool) "degradation flagged" true (site 0x200).Obs.Attribution.degraded;
  Alcotest.(check int) "faults add no cycles" (5 * cost.Mda_machine.Cost_model.align_trap)
    (Obs.Attribution.total_mda_cycles attr);
  (* ?top:1 keeps one named site; the <unattributed> row is pinned *)
  let rows = Mda_util.Tabular.rows (Obs.Attribution.site_table ~top:1 attr) in
  Alcotest.(check int) "top:1 = 1 named + pinned unattributed" 2 (List.length rows);
  Alcotest.(check bool) "<unattributed> row present" true
    (List.exists (fun r -> r.(0) = "<unattributed>") rows)

(* --- counter registry --------------------------------------------------- *)

let test_counter_registry_matches_stats () =
  (* the declared-once registry and the Run_stats snapshot must agree *)
  let w = Mda_workloads.Workload.instantiate ~scale bench in
  let mem = Mda_workloads.Workload.fresh_memory w in
  let config =
    Bt.Runtime.default_config (Bt.Mechanism.Exception_handling { rearrange = false })
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry:(Mda_workloads.Workload.entry w) in
  let c = Bt.Runtime.counters t in
  let geti = Bt.Counters.geti c in
  Alcotest.(check int) "patches" stats.Bt.Run_stats.patches (geti Bt.Counters.Handler_patches);
  Alcotest.(check int) "translations" stats.Bt.Run_stats.translations
    (geti Bt.Counters.Translations);
  Alcotest.(check int) "chains" stats.Bt.Run_stats.chains (geti Bt.Counters.Chains);
  Alcotest.(check int64) "interp insns" stats.Bt.Run_stats.interp_insns
    (Bt.Counters.get c Bt.Counters.Interp_insns);
  Alcotest.(check int64) "memrefs" stats.Bt.Run_stats.memrefs
    (Bt.Counters.get c Bt.Counters.Memrefs);
  (* the declared-once table: one slot per id, unique stable names *)
  let names = List.map (fun (_, name, _) -> name) Bt.Counters.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "one entry per declared counter" (List.length Bt.Counters.all)
    (List.length (Bt.Counters.to_alist c))

let suite =
  [ ( "obs",
      [ Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
        Alcotest.test_case "replay reconstructs all mechanisms" `Quick
          test_replay_reconstructs_all_mechanisms;
        Alcotest.test_case "tampered traces rejected" `Quick test_tampered_trace_rejected;
        Alcotest.test_case "ring buffer drops and counts" `Quick
          test_ring_buffer_drops_and_counts;
        Alcotest.test_case "tracing does not change results" `Quick
          test_tracing_does_not_change_results;
        Alcotest.test_case "trace deterministic across jobs" `Quick
          test_trace_deterministic_across_jobs;
        Alcotest.test_case "trace deterministic across cache" `Quick
          test_trace_deterministic_across_cache;
        Alcotest.test_case "attribution accounts every event" `Quick
          test_attribution_accounts_every_event;
        Alcotest.test_case "unattributed fixups get a pinned row" `Quick
          test_attribution_unattributed_row;
        Alcotest.test_case "counter registry matches stats" `Quick
          test_counter_registry_matches_stats ] ) ]
