(* The persistent result cache: hits return exactly what was stored,
   every knob that can change a cell's result changes its key, corrupted
   entries degrade to a miss (the runner recomputes), and an Exec built
   without a cache (the --no-cache path) never touches the directory. *)

module H = Mda_harness
module W = Mda_workloads
module Bt = Mda_bt

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mda_cache_test_%d_%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let cell = H.Cell.mech ~scale:0.02 H.Cell.Direct "164.gzip"

let test_miss_then_hit () =
  let cache = H.Result_cache.create ~dir:(fresh_dir ()) () in
  Alcotest.(check bool) "cold cache misses" true (H.Result_cache.find cache cell = None);
  let result = H.Cell.compute cell in
  H.Result_cache.store cache cell result;
  match H.Result_cache.find cache cell with
  | None -> Alcotest.fail "stored entry must hit"
  | Some r ->
    Alcotest.(check int64) "cycles round-trip" result.H.Cell.stats.Bt.Run_stats.cycles
      r.H.Cell.stats.Bt.Run_stats.cycles;
    Alcotest.(check bool) "full stats round-trip" true (r.H.Cell.stats = result.H.Cell.stats);
    Alcotest.(check bool) "sites round-trip" true (r.H.Cell.sites = result.H.Cell.sites)

let test_sites_round_trip () =
  (* interp cells carry a profile dump; it must survive serialization *)
  let cell = H.Cell.interp ~scale:0.02 "410.bwaves" in
  let cache = H.Result_cache.create ~dir:(fresh_dir ()) () in
  let result = H.Cell.compute cell in
  Alcotest.(check bool) "profile is non-trivial" true (Array.length result.H.Cell.sites > 0);
  H.Result_cache.store cache cell result;
  match H.Result_cache.find cache cell with
  | None -> Alcotest.fail "stored entry must hit"
  | Some r -> Alcotest.(check bool) "sites identical" true (r.H.Cell.sites = result.H.Cell.sites)

let test_key_sensitivity () =
  (* every field that can change the result must change the key *)
  let base = cell in
  let k = H.Result_cache.key in
  let differs label other = Alcotest.(check bool) label true (k base <> k other) in
  differs "mechanism config changes key"
    (H.Cell.mech ~scale:0.02 (H.Cell.Dynamic_profiling { threshold = 50 }) "164.gzip");
  differs "mechanism sub-config changes key"
    (H.Cell.mech ~scale:0.02 (H.Cell.Dynamic_profiling { threshold = 51 }) "164.gzip");
  differs "scale changes key" (H.Cell.mech ~scale:0.021 H.Cell.Direct "164.gzip");
  differs "input changes key"
    (H.Cell.mech ~scale:0.02 ~input:W.Gen.Train H.Cell.Direct "164.gzip");
  differs "benchmark changes key" (H.Cell.mech ~scale:0.02 H.Cell.Direct "188.ammp");
  differs "chaining changes key"
    (H.Cell.mech ~scale:0.02 ~chaining:false H.Cell.Direct "164.gzip");
  differs "kind changes key" (H.Cell.interp ~scale:0.02 "164.gzip");
  differs "cache capacity changes key"
    (H.Cell.mech ~scale:0.02 ~capacity:128 H.Cell.Direct "164.gzip");
  Alcotest.(check string) "key is stable" (k base) (k base)

let test_corrupt_entry_is_a_miss () =
  let cache = H.Result_cache.create ~dir:(fresh_dir ()) () in
  let result = H.Cell.compute cell in
  H.Result_cache.store cache cell result;
  let path = H.Result_cache.path cache cell in
  let corrupt text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Alcotest.(check bool) ("corrupt entry misses: " ^ String.escaped (String.sub text 0 (min 20 (String.length text)))) true
      (H.Result_cache.find cache cell = None)
  in
  corrupt "";
  corrupt "garbage\n";
  corrupt "mdabench-cache v999\nnope\n";
  (* truncated genuine entry *)
  let text = H.Result_cache.to_string cell result in
  corrupt (String.sub text 0 (String.length text / 2));
  (* an entry for a *different* cell under this cell's key is stale *)
  let other = H.Cell.mech ~scale:0.02 H.Cell.Direct "188.ammp" in
  corrupt (H.Result_cache.to_string other (H.Cell.compute other));
  (* and storing again repairs it *)
  H.Result_cache.store cache cell result;
  Alcotest.(check bool) "restored entry hits" true (H.Result_cache.find cache cell <> None)

(* Regression for the corrupt-entry contract at the parser level:
   [Run_stats.of_kv] and [Result_cache.of_string] return [Error] — never
   an escaping exception — for every way a field can be damaged. *)
let test_garbled_values_are_errors () =
  let result = H.Cell.compute cell in
  let kv = Bt.Run_stats.to_kv result.H.Cell.stats in
  let is_error = function Error _ -> true | Ok _ -> false in
  (* pristine round-trip first, so the Error cases below mean something *)
  (match Bt.Run_stats.of_kv kv with
  | Ok s -> Alcotest.(check bool) "kv round-trip" true (s = result.H.Cell.stats)
  | Error e -> Alcotest.failf "pristine kv failed to parse: %s" e);
  let replace k v = List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) kv in
  Alcotest.(check bool) "garbled int64 value" true
    (is_error (Bt.Run_stats.of_kv (replace "cycles" "12x3")));
  Alcotest.(check bool) "garbled int value" true
    (is_error (Bt.Run_stats.of_kv (replace "patches" "")));
  Alcotest.(check bool) "unknown stop reason" true
    (is_error (Bt.Run_stats.of_kv (replace "stop" "sideways")));
  Alcotest.(check bool) "missing key" true
    (is_error (Bt.Run_stats.of_kv (List.remove_assoc "traps" kv)));
  Alcotest.(check bool) "empty kv list" true (is_error (Bt.Run_stats.of_kv []));
  (* the same damage inside a full cache entry *)
  let text = H.Result_cache.to_string cell result in
  let damage_value line =
    (* rewrite "cycles=<digits>" into "cycles=12x3" textually *)
    match String.index_opt line '=' with
    | Some i when String.sub line 0 i = "cycles" -> "cycles=12x3"
    | _ -> line
  in
  let garbled =
    String.split_on_char '\n' text |> List.map damage_value |> String.concat "\n"
  in
  Alcotest.(check bool) "entry text differs after damage" true (garbled <> text);
  Alcotest.(check bool) "garbled entry is an Error" true
    (is_error (H.Result_cache.of_string cell garbled));
  Alcotest.(check bool) "truncated entry is an Error" true
    (is_error (H.Result_cache.of_string cell (String.sub text 0 (String.length text / 3))));
  (* on disk, the same garbled entry degrades to a cache miss *)
  let cache = H.Result_cache.create ~dir:(fresh_dir ()) () in
  H.Result_cache.store cache cell result;
  let oc = open_out (H.Result_cache.path cache cell) in
  output_string oc garbled;
  close_out oc;
  Alcotest.(check bool) "garbled on-disk entry misses" true
    (H.Result_cache.find cache cell = None)

let test_exec_recomputes_after_corruption () =
  let dir = fresh_dir () in
  let cache = H.Result_cache.create ~dir () in
  let ex = H.Exec.create ~cache () in
  H.Exec.prefetch ex [ cell ];
  Alcotest.(check int) "cold run computes" 1 (H.Exec.counters ex).H.Exec.computed;
  let oc = open_out (H.Result_cache.path cache cell) in
  output_string oc "garbage";
  close_out oc;
  (* a fresh Exec over the same dir: corrupted entry forces recompute *)
  let ex2 = H.Exec.create ~cache:(H.Result_cache.create ~dir ()) () in
  H.Exec.prefetch ex2 [ cell ];
  let c = H.Exec.counters ex2 in
  Alcotest.(check int) "corrupted entry recomputed" 1 c.H.Exec.computed;
  Alcotest.(check int) "no phantom hit" 0 c.H.Exec.cache_hits;
  (* ...and the recompute repaired the entry *)
  let ex3 = H.Exec.create ~cache:(H.Result_cache.create ~dir ()) () in
  H.Exec.prefetch ex3 [ cell ];
  Alcotest.(check int) "repaired entry hits" 1 (H.Exec.counters ex3).H.Exec.cache_hits

let test_exec_cache_flow () =
  let dir = fresh_dir () in
  let mk () = H.Exec.create ~cache:(H.Result_cache.create ~dir ()) () in
  let cells =
    [ cell; H.Cell.mech ~scale:0.02 H.Cell.Direct "188.ammp"; cell (* duplicate *) ]
  in
  let ex = mk () in
  H.Exec.prefetch ex cells;
  let c = H.Exec.counters ex in
  Alcotest.(check int) "cold: two computed" 2 c.H.Exec.computed;
  Alcotest.(check int) "cold: duplicate deduped" 1 c.H.Exec.memo_hits;
  let warm = mk () in
  H.Exec.prefetch warm cells;
  let c = H.Exec.counters warm in
  Alcotest.(check int) "warm: nothing computed" 0 c.H.Exec.computed;
  Alcotest.(check int) "warm: both served from cache" 2 c.H.Exec.cache_hits;
  (* results agree between the computed and cached paths *)
  Alcotest.(check bool) "cycles agree" true
    (H.Exec.cycles ex cell = H.Exec.cycles warm cell)

let test_no_cache_bypass () =
  (* an Exec without a cache (--no-cache) computes every time and writes
     nothing anywhere *)
  let ex = H.Exec.create () in
  H.Exec.prefetch ex [ cell ];
  Alcotest.(check int) "computed" 1 (H.Exec.counters ex).H.Exec.computed;
  let ex2 = H.Exec.create () in
  H.Exec.prefetch ex2 [ cell ];
  let c = H.Exec.counters ex2 in
  Alcotest.(check int) "computed again" 1 c.H.Exec.computed;
  Alcotest.(check int) "never a cache hit" 0 c.H.Exec.cache_hits

(* The trap-cost sweep re-prices Figure 16's default-cost cells instead
   of simulating one cell per trap cost: it requests one cell per
   (benchmark, mechanism), and Figure 16 then finds all of them memoized. *)
let test_trap_cost_ablation_shares_fig16 () =
  let ex = H.Exec.create () in
  let opts = { Test_golden.golden_opts with H.Experiment.exec = Some ex } in
  ignore (H.Ablation.trap_cost ~opts ());
  let after_ablation = H.Exec.counters ex in
  Alcotest.(check int) "3 benchmarks x 4 mechanisms computed" 12
    after_ablation.H.Exec.computed;
  Alcotest.(check int) "no repeated request" 0 after_ablation.H.Exec.memo_hits;
  ignore (H.Fig16.run ~opts ());
  let fig16 = H.Exec.diff_counters (H.Exec.counters ex) after_ablation in
  Alcotest.(check int) "fig16 reuses all 12" 12 fig16.H.Exec.memo_hits;
  Alcotest.(check int) "fig16 computes only its DPEH column" 3 fig16.H.Exec.computed

let test_racing_writers () =
  (* two concurrent mdabench invocations writing into the same cache
     directory: the advisory lock serializes stores, so after both
     finish every entry reads back intact — no torn or interleaved
     files *)
  let dir = fresh_dir () in
  let cells =
    List.init 6 (fun i -> H.Cell.mech ~scale:0.02 ~capacity:(100 + i) H.Cell.Direct "164.gzip")
  in
  let result = H.Cell.compute cell in
  let writer () =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      let cache = H.Result_cache.create ~dir () in
      for _ = 1 to 30 do
        List.iter (fun c -> H.Result_cache.store cache c result) cells
      done;
      Unix._exit 0
    | pid -> pid
  in
  let pids = [ writer (); writer () ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.failf "racing writer %d did not exit cleanly" pid)
    pids;
  let cache = H.Result_cache.create ~dir () in
  List.iteri
    (fun i c ->
      match H.Result_cache.find cache c with
      | Some r ->
        Alcotest.(check bool) (Printf.sprintf "entry %d intact" i) true
          (r.H.Cell.stats = result.H.Cell.stats)
      | None -> Alcotest.failf "entry %d torn or missing after the race" i)
    cells;
  (* no stray temp files left behind by either writer *)
  let strays =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (Filename.check_suffix f ".cell" || f = ".lock"))
  in
  Alcotest.(check (list string)) "no stray files" [] strays

let test_lock_contention_backoff () =
  (* a sibling writer holding the advisory lock makes [store] wait it
     out (non-blocking retries with backoff, then a blocking
     acquisition) rather than proceed unlocked: the store must land
     only after the holder releases, and the entry must read back
     intact *)
  let dir = fresh_dir () in
  let hold = 0.15 in
  let result = H.Cell.compute cell in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
      let fd =
        Unix.openfile (Filename.concat dir ".lock") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      in
      Unix.lockf fd Unix.F_LOCK 0;
      ignore (Unix.select [] [] [] hold);
      Unix.lockf fd Unix.F_ULOCK 0;
      Unix.close fd;
      Unix._exit 0
    | pid -> pid
  in
  (* give the child time to take the lock before storing *)
  ignore (Unix.select [] [] [] 0.03);
  let t0 = Unix.gettimeofday () in
  let cache = H.Result_cache.create ~dir () in
  H.Result_cache.store cache cell result;
  let waited = Unix.gettimeofday () -. t0 in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "lock-holder child did not exit cleanly");
  Alcotest.(check bool)
    (Printf.sprintf "store out-waited the lock holder (%.0fms)" (waited *. 1000.))
    true (waited > 0.05);
  match H.Result_cache.find cache cell with
  | Some r ->
    Alcotest.(check bool) "entry intact after contention" true
      (r.H.Cell.stats = result.H.Cell.stats)
  | None -> Alcotest.fail "entry missing after contended store"

let test_unwritable_dir_degrades () =
  (* a cache rooted somewhere unwritable is a slow cache, not a crash *)
  let cache = H.Result_cache.create ~dir:"/proc/nonexistent/cache" () in
  H.Result_cache.store cache cell (H.Cell.compute cell);
  Alcotest.(check bool) "store swallowed, find misses" true
    (H.Result_cache.find cache cell = None)

(* Every numeric field distinct, so a row that reads or writes the wrong
   field shows. *)
let distinct : Bt.Run_stats.t =
  { mechanism = "probe"; stop = Bt.Run_stats.Halted; cycles = 1L; guest_insns = 2L;
    interp_insns = 3L; host_insns = 4L; memrefs = 5L; mdas = 6L; traps = 7L; patches = 8;
    translations = 9; retranslations = 10; rearrangements = 11; chains = 12; evictions = 13;
    patch_faults = 14; degraded = 15; blocks = 16; code_len = 17; icache_misses = 18;
    dcache_misses = 19 }

(* [Run_stats.to_kv]'s key order is the on-disk format of this cache and
   of the trace footer, and [Run_stats]' field table is what fixes it. *)
let test_run_stats_fields () =
  Alcotest.(check (list (pair string string)))
    "to_kv keys, in order, each with its own field"
    [ ("mechanism", "probe"); ("stop", "halt"); ("cycles", "1"); ("guest_insns", "2");
      ("interp_insns", "3"); ("host_insns", "4"); ("memrefs", "5"); ("mdas", "6");
      ("traps", "7"); ("patches", "8"); ("translations", "9"); ("retranslations", "10");
      ("rearrangements", "11"); ("chains", "12"); ("evictions", "13");
      ("patch_faults", "14"); ("degraded", "15"); ("blocks", "16"); ("code_len", "17");
      ("icache_misses", "18"); ("dcache_misses", "19") ]
    (Bt.Run_stats.to_kv distinct);
  Alcotest.(check bool) "of_kv inverts to_kv" true
    (Bt.Run_stats.of_kv (Bt.Run_stats.to_kv distinct) = Ok distinct);
  let zero = Bt.Run_stats.zero ~mechanism:"probe" ~stop:Bt.Run_stats.Halted in
  Alcotest.(check bool) "add zero t = t" true (Bt.Run_stats.add zero distinct = distinct);
  Alcotest.(check bool) "add t t doubles every numeric field" true
    (Bt.Run_stats.add distinct distinct
    = { distinct with
        cycles = 2L; guest_insns = 4L; interp_insns = 6L; host_insns = 8L; memrefs = 10L;
        mdas = 12L; traps = 14L; patches = 16; translations = 18; retranslations = 20;
        rearrangements = 22; chains = 24; evictions = 26; patch_faults = 28; degraded = 30;
        blocks = 32; code_len = 34; icache_misses = 36; dcache_misses = 38 })

let suite =
  [ ( "result-cache",
      [ Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
        Alcotest.test_case "profile dump round-trips" `Quick test_sites_round_trip;
        Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
        Alcotest.test_case "corrupt entry = miss" `Quick test_corrupt_entry_is_a_miss;
        Alcotest.test_case "garbled values = Error" `Quick test_garbled_values_are_errors;
        Alcotest.test_case "run-stats field table" `Quick test_run_stats_fields;
        Alcotest.test_case "exec recomputes after corruption" `Quick
          test_exec_recomputes_after_corruption;
        Alcotest.test_case "exec cache flow" `Quick test_exec_cache_flow;
        Alcotest.test_case "--no-cache bypass" `Quick test_no_cache_bypass;
        Alcotest.test_case "trap-cost ablation computes only Figure 16's cells" `Quick
          test_trap_cost_ablation_shares_fig16;
        Alcotest.test_case "racing writers do not tear" `Quick test_racing_writers;
        Alcotest.test_case "contended lock is out-waited" `Quick
          test_lock_contention_backoff;
        Alcotest.test_case "unwritable dir degrades" `Quick test_unwritable_dir_degrades ] ) ]
