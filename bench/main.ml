(* Benchmark harness: regenerates every table and figure of the paper,
   and measures the simulation cost of each experiment with Bechamel.

   Part 1 (Bechamel): one [Test.make] per table/figure, run on a reduced
   workload so the measurement loop can iterate; reports wall-clock per
   regeneration via the monotonic clock and OLS analysis.

   Part 2 (regeneration): prints every table and figure at full scale —
   this is the output to compare against the paper, e.g.

     dune exec bench/main.exe 2>&1 | tee bench_output.txt

   Part 3 (perf trajectory): measures the whole-program congruence
   analysis (blocks/sec to fixpoint) and AOT static translation
   throughput over the Table-I workload images.

   Part 4 (assembler throughput): measures both textual assemblers —
   guest parse+assemble and decode+pretty over the Table-I program
   texts, host parse and encode/decode over AOT-translated code — and
   writes all the numbers to BENCH_pr7.json, the next point of the
   repository's performance trajectory.

   Part 5 (peephole tier): times the superoptimizer-style rule miner
   from scratch on a two-workload corpus at the committed seed, then
   measures the installed tier — rewrite hits per 1k block translations
   and modelled cycles saved with/without the committed rule file under
   the direct mechanism — and writes BENCH_pr8.json.

   Part 6 (translation throughput): measures the single-pass template
   emitter against the frozen list-based reference over the Table-I
   block corpus — translations/sec, emitted host insns/sec, allocation
   words/block (Gc.minor_words), patch latency — and writes
   BENCH_pr9.json, which bin/ci.sh gates regressions against.

   All repetition timing runs on the monotonic clock
   (Mda_util.Timing over Monotonic_clock.now) and reports
   median-of-rounds, so the BENCH_*.json trajectory is stable under
   wall-clock adjustments.

   Environment:
     MDA_BENCH_SCALE        workload scale for part 2 (default 1.0)
     MDA_BENCH_QUOTA_MS     Bechamel time quota per test (default 1000)
     MDA_BENCH_SKIP_MEASURE=1   skip part 1
     MDA_BENCH_PART         run only this part: pr7 | pr8 | pr9 | pr10 (default all)
     MDA_BENCH_JSON         part-3/4 output path (default BENCH_pr7.json)
     MDA_BENCH_PR8_JSON     part-5 output path (default BENCH_pr8.json)
     MDA_BENCH_PR9_JSON     part-6 output path (default BENCH_pr9.json)
     MDA_BENCH_PR10_JSON    part-7 output path (default BENCH_pr10.json) *)

(* The raw clock stubs; aliased before the opens because
   [Bechamel.Toolkit] shadows [Monotonic_clock] with a MEASURE wrapper
   that has no [now]. *)
module Mclock = Monotonic_clock

open Bechamel
open Bechamel.Toolkit
module H = Mda_harness
module W = Mda_workloads
module A = Mda_analysis
module Bt = Mda_bt
module Srv = Mda_server

(* Reduced workload for the measurement loop: three representative
   benchmarks (low / highest / biased MDA ratio) at 2% volume. *)
let measure_opts =
  { H.Experiment.scale = 0.02;
    benchmarks = [ "164.gzip"; "410.bwaves"; "188.ammp" ];
    exec = None }

let tests =
  List.map
    (fun (name, _, (run : H.Paper.runner)) ->
      Test.make ~name (Staged.stage (fun () -> ignore (run ~opts:measure_opts ()))))
    H.Paper.experiments

let run_measurements () =
  let quota_ms =
    match Sys.getenv_opt "MDA_BENCH_QUOTA_MS" with
    | Some s -> float_of_string s
    | None -> 1000.
  in
  let cfg = Benchmark.cfg ~quota:(Time.millisecond quota_ms) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf
    "== Bechamel: wall-clock per experiment regeneration (scale %.2f, %d benchmarks) ==\n%!"
    measure_opts.H.Experiment.scale
    (List.length measure_opts.H.Experiment.benchmarks);
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name res ->
          match Analyze.OLS.estimates res with
          | Some [ est ] -> Printf.printf "  %-24s %10.2f ms/run\n%!" name (est /. 1e6)
          | _ -> Printf.printf "  %-24s (no estimate)\n%!" name)
        results)
    tests;
  print_newline ()

(* --- parts 3+4: analysis / AOT / assembler throughput -> BENCH_pr7.json - *)

let now () = Mclock.now ()

(* Time a thunk on the monotonic clock: 3 rounds, each repeating until
   0.2 s elapses; the sample's median ns-per-rep is what gets recorded.
   The thunks are pure with respect to guest memory (neither the
   analysis nor translate_image mutates the image), so repetition needs
   no re-setup. *)
let time_reps f = Mda_util.Timing.measure ~now ~rounds:3 ~min_ns:200_000_000L f

(* (items processed per rep) -> items/sec at the sample's median rate. *)
let per_sec count (s : Mda_util.Timing.sample) = Mda_util.Timing.per_sec ~count s

(* A/B comparison in interleaved rounds, so machine-load drift lands on
   both sides about equally — the speedup figures in BENCH_pr9.json are
   ratios of these paired samples. *)
let time_pair f g = Mda_util.Timing.measure_pair ~now ~rounds:5 ~min_ns:200_000_000L f g

let emit_bench_json () =
  let path =
    match Sys.getenv_opt "MDA_BENCH_JSON" with Some p -> p | None -> "BENCH_pr7.json"
  in
  let images =
    List.map
      (fun name ->
        let w = W.Workload.instantiate name in
        (W.Workload.fresh_memory w, W.Workload.entry w))
      (W.Spec.selected_names @ [ "stack.frames" ])
  in
  (* one counted pass for the work volume *)
  let blocks = ref 0 and iterations = ref 0 in
  List.iter
    (fun (mem, entry) ->
      let a = A.Dataflow.analyze mem ~entry in
      blocks := !blocks + a.A.Dataflow.blocks;
      iterations := !iterations + a.A.Dataflow.iterations)
    images;
  let an =
    time_reps (fun () ->
        List.iter (fun (mem, entry) -> ignore (A.Dataflow.analyze mem ~entry)) images)
  in
  (* AOT throughput isolates translate_image: summaries precomputed *)
  let prepped =
    List.map
      (fun (mem, entry) ->
        (mem, entry, A.Dataflow.summary (A.Dataflow.analyze mem ~entry)))
      images
  in
  let translate (mem, entry, summary) =
    match Bt.Aot.translate_image ~summary ~unknown:Bt.Mechanism.Sa_seq mem ~entry with
    | Ok r -> r
    | Error msg -> failwith ("BENCH aot translation failed: " ^ msg)
  in
  let aot_blocks = ref 0 and guest_insns = ref 0 and host_insns = ref 0 in
  List.iter
    (fun p ->
      let _, (s : Bt.Aot.stats) = translate p in
      aot_blocks := !aot_blocks + s.Bt.Aot.blocks;
      guest_insns := !guest_insns + s.Bt.Aot.guest_insns;
      host_insns := !host_insns + s.Bt.Aot.host_insns)
    prepped;
  let aot =
    time_reps (fun () -> List.iter (fun p -> ignore (translate p)) prepped)
  in
  (* part 4: assembler/disassembler throughput. Guest corpus: the
     pretty text and encoded image of every Table-I program (branch
     targets are absolute, so the text reassembles standalone). Host
     corpus: the AOT translation of the first workload — real
     translator output, not synthetic streams. *)
  let guest_programs =
    List.map
      (fun name ->
        let w = W.Workload.instantiate name in
        w.W.Workload.program.W.Gen.asm_program)
      (W.Spec.selected_names @ [ "stack.frames" ])
  in
  let guest_texts =
    List.map
      (fun (p : Mda_guest.Asm.program) ->
        let buf = Buffer.create 4096 in
        Array.iter
          (fun insn ->
            Buffer.add_string buf (Mda_guest.Pretty.insn_to_string insn);
            Buffer.add_char buf '\n')
          p.Mda_guest.Asm.insns;
        (Buffer.contents buf, p.Mda_guest.Asm.base))
      guest_programs
  in
  let asm_guest_insns =
    List.fold_left
      (fun n (p : Mda_guest.Asm.program) -> n + Array.length p.Mda_guest.Asm.insns)
      0 guest_programs
  in
  let gasm =
    time_reps (fun () ->
        List.iter
          (fun (text, base) ->
            match Mda_guest.Parse.program ~base text with
            | Ok _ -> ()
            | Error e ->
              failwith
                (Format.asprintf "BENCH guest reassembly failed: %a"
                   Mda_guest.Parse.pp_error e))
          guest_texts)
  in
  let gdis =
    time_reps (fun () ->
        List.iter
          (fun (p : Mda_guest.Asm.program) ->
            match Mda_guest.Decode.decode_all p.Mda_guest.Asm.image with
            | Ok l -> List.iter (fun (_, i) -> ignore (Mda_guest.Pretty.insn_to_string i)) l
            | Error e ->
              failwith
                (Format.asprintf "BENCH guest decode failed: %a" Mda_guest.Decode.pp_error
                   e))
          guest_programs)
  in
  let host_code =
    let cache, _ = translate (List.hd prepped) in
    Array.init (Bt.Code_cache.length cache) (Bt.Code_cache.fetch cache)
  in
  let host_insns_n = Array.length host_code in
  let hasm =
    time_reps (fun () ->
        Array.iter
          (fun insn ->
            match Mda_host.Parse.insn (Mda_host.Pretty.insn_to_string insn) with
            | Ok _ -> ()
            | Error e ->
              failwith
                (Format.asprintf "BENCH host reparse failed: %a" Mda_host.Parse.pp_error e))
          host_code)
  in
  let hcodec =
    time_reps (fun () ->
        Array.iteri
          (fun pc insn ->
            match Mda_host.Encode.decode ~pc (Mda_host.Encode.encode ~pc insn) with
            | Ok _ -> ()
            | Error e -> failwith ("BENCH host codec failed: " ^ e.Mda_host.Encode.reason))
          host_code)
  in
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "pr": 7,
  "analysis": {
    "workloads": %d,
    "blocks": %d,
    "fixpoint_iterations": %d,
    "median_ns_per_rep": %.1f,
    "reps": %d,
    "blocks_per_sec": %.1f
  },
  "aot": {
    "workloads": %d,
    "blocks": %d,
    "guest_insns": %d,
    "host_insns": %d,
    "median_ns_per_rep": %.1f,
    "reps": %d,
    "blocks_per_sec": %.1f,
    "host_insns_per_sec": %.1f
  },
  "assembler": {
    "guest_insns": %d,
    "guest_asm_insns_per_sec": %.1f,
    "guest_disasm_insns_per_sec": %.1f,
    "host_insns": %d,
    "host_asm_insns_per_sec": %.1f,
    "host_codec_insns_per_sec": %.1f
  }
}
|}
    (List.length images) !blocks !iterations an.Mda_util.Timing.median_ns
    an.Mda_util.Timing.total_reps (per_sec !blocks an)
    (List.length prepped) !aot_blocks !guest_insns !host_insns
    aot.Mda_util.Timing.median_ns aot.Mda_util.Timing.total_reps
    (per_sec !aot_blocks aot) (per_sec !host_insns aot)
    asm_guest_insns
    (per_sec asm_guest_insns gasm)
    (per_sec asm_guest_insns gdis)
    host_insns_n
    (per_sec host_insns_n hasm)
    (per_sec host_insns_n hcodec);
  close_out oc;
  Printf.printf
    "== wrote %s (analysis %.0f blocks/s, aot %.0f host insns/s, asm %.0f guest \
     insns/s) ==\n\n%!"
    path (per_sec !blocks an) (per_sec !host_insns aot)
    (per_sec asm_guest_insns gasm)

(* --- part 5: peephole mining / rewrite-tier numbers -> BENCH_pr8.json --- *)

(* The committed rule file, found from the repo root (the usual
   [dune exec] cwd) or through the workspace root when run elsewhere. *)
let committed_rules_path =
  let local = Filename.concat "rules" "pr8.rules" in
  if Sys.file_exists local then local
  else
    match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some root -> Filename.concat root local
    | None -> local

let emit_peephole_json () =
  let path =
    match Sys.getenv_opt "MDA_BENCH_PR8_JSON" with
    | Some p -> p
    | None -> "BENCH_pr8.json"
  in
  (* mining throughput: the full mine-screen-prove pipeline re-run from
     scratch on a reduced corpus at the committed seed *)
  let mine_corpus = [ "164.gzip"; "410.bwaves" ] in
  let mine_scale = 0.05 and budget = 400 and max_len = 4 and seed = 42 in
  let images =
    List.map
      (fun name ->
        let w = W.Workload.instantiate ~scale:mine_scale name in
        (name, W.Workload.fresh_memory w, W.Workload.entry w))
      mine_corpus
  in
  let mine () = A.Miner.mine ~budget ~max_len ~seed ~images () in
  let o = mine () in
  if o.A.Miner.rules = [] then failwith "BENCH miner found no rules";
  let mine_sample = time_reps (fun () -> ignore (mine ())) in
  let rules_per_sec = per_sec (List.length o.A.Miner.rules) mine_sample in
  (* installed tier: direct-mechanism runs with and without the
     committed rule file on representative Table-I workloads *)
  let rules =
    match Mda_host.Peephole.load committed_rules_path with
    | Ok [] -> failwith "BENCH committed rule file is empty"
    | Ok rs -> rs
    | Error msg -> failwith ("BENCH cannot load committed rules: " ^ msg)
  in
  let run_direct ?rules name =
    let w = W.Workload.instantiate ~scale:0.05 name in
    let mem = W.Workload.fresh_memory w in
    let rules = Option.map Mda_host.Peephole.activate rules in
    let config =
      { (Bt.Runtime.default_config Bt.Mechanism.Direct) with Bt.Runtime.rules }
    in
    let t = Bt.Runtime.create ~config ~mem () in
    let stats = Bt.Runtime.run t ~entry:(W.Workload.entry w) in
    (stats, t)
  in
  let rows =
    List.map
      (fun name ->
        let (base : Bt.Run_stats.t), _ = run_direct name in
        let (tier : Bt.Run_stats.t), t = run_direct ~rules name in
        let counter c = Int64.to_int (Bt.Counters.get t.Bt.Runtime.counters c) in
        let hits = counter Bt.Counters.Peephole_hits in
        let saved = counter Bt.Counters.Peephole_saved in
        let cycles_saved = Int64.sub base.Bt.Run_stats.cycles tier.Bt.Run_stats.cycles in
        Printf.sprintf
          {|      {
        "name": "%s",
        "scale": 0.05,
        "translations": %d,
        "rewrite_hits": %d,
        "hits_per_1k_translations": %.1f,
        "static_cycles_saved": %d,
        "cycles_without_rules": %Ld,
        "cycles_with_rules": %Ld,
        "modelled_cycles_saved": %Ld,
        "saved_pct": %.2f,
        "code_len_without_rules": %d,
        "code_len_with_rules": %d
      }|}
          name tier.Bt.Run_stats.translations hits
          (1000.0 *. float_of_int hits /. float_of_int (max 1 tier.Bt.Run_stats.translations))
          saved base.Bt.Run_stats.cycles tier.Bt.Run_stats.cycles cycles_saved
          (100.0
          *. Int64.to_float cycles_saved
          /. Int64.to_float (Int64.max 1L base.Bt.Run_stats.cycles))
          base.Bt.Run_stats.code_len tier.Bt.Run_stats.code_len)
      [ "164.gzip"; "410.bwaves"; "188.ammp" ]
  in
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "pr": 8,
  "miner": {
    "corpus": [%s],
    "scale": %.2f,
    "budget": %d,
    "max_len": %d,
    "seed": %d,
    "windows": %d,
    "screened": %d,
    "proof_attempts": %d,
    "proof_failures": %d,
    "rules": %d,
    "survivors": %d,
    "median_ns_per_rep": %.1f,
    "reps": %d,
    "rules_mined_per_sec": %.2f
  },
  "tier": {
    "rules_file": "rules/pr8.rules",
    "digest": "%s",
    "mechanism": "direct",
    "workloads": [
%s
    ]
  }
}
|}
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") mine_corpus))
    mine_scale budget max_len seed o.A.Miner.windows o.A.Miner.screened
    o.A.Miner.proof_attempts o.A.Miner.proof_failures
    (List.length o.A.Miner.rules)
    (List.length o.A.Miner.survivors)
    mine_sample.Mda_util.Timing.median_ns mine_sample.Mda_util.Timing.total_reps
    rules_per_sec
    (Mda_host.Peephole.digest rules)
    (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "== wrote %s (%d rule(s) mined at %.2f rules/s, digest %s) ==\n\n%!" path
    (List.length o.A.Miner.rules)
    rules_per_sec
    (Mda_host.Peephole.digest rules)

(* --- part 6: translation throughput -> BENCH_pr9.json ------------------- *)

(* Static block discovery, mirroring the AOT walk: every block reachable
   from the entry via direct jump/branch/call targets and fall-throughs. *)
let discover_blocks mem ~entry =
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace visited entry ();
  Queue.push entry queue;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let pc = Queue.pop queue in
    match Bt.Block.discover mem ~pc with
    | Error _ -> ()
    | Ok block ->
      out := block :: !out;
      let n = Array.length block.Bt.Block.insns in
      let succs =
        match block.Bt.Block.insns.(n - 1) with
        | Mda_guest.Isa.Jmp t -> [ t ]
        | Mda_guest.Isa.Jcc { target; _ } -> [ target; block.Bt.Block.next ]
        | Mda_guest.Isa.Call t -> [ t; block.Bt.Block.next ]
        | _ -> []
      in
      List.iter
        (fun s ->
          if not (Hashtbl.mem visited s) then begin
            Hashtbl.replace visited s ();
            Queue.push s queue
          end)
        succs
  done;
  List.rev !out

let emit_translation_json () =
  let path =
    match Sys.getenv_opt "MDA_BENCH_PR9_JSON" with
    | Some p -> p
    | None -> "BENCH_pr9.json"
  in
  (* corpus: every statically reachable block of the Table-I workloads *)
  let blocks =
    List.concat_map
      (fun name ->
        let w = W.Workload.instantiate name in
        discover_blocks (W.Workload.fresh_memory w) ~entry:(W.Workload.entry w))
      (W.Spec.selected_names @ [ "stack.frames" ])
  in
  let n_blocks = List.length blocks in
  let guest_insns = List.fold_left (fun n b -> n + Bt.Block.length b) 0 blocks in
  let plain_rules =
    match Mda_host.Peephole.load committed_rules_path with
    | Ok rs -> rs
    | Error msg -> failwith ("BENCH cannot load committed rules: " ^ msg)
  in
  let scratch = Bt.Translate.create_scratch () in
  (* One corpus pass per repetition into a flushed long-lived cache —
     the way a real DBT re-translates into its reserved cache region —
     so the emitted range (and the work) is identical every time and
     neither emitter is charged for growing a throwaway store. *)
  let fast_cache = Bt.Code_cache.create () in
  let ref_cache = Bt.Code_cache.create () in
  let fast_pass ?rules policy () =
    Bt.Code_cache.flush fast_cache;
    List.iter
      (fun b ->
        ignore
          (Bt.Translate.translate ?rules ~scratch ~cache:fast_cache
             ~policy_of:(fun _ -> policy) b))
      blocks;
    fast_cache
  in
  let ref_pass ?rules policy () =
    Bt.Code_cache.flush ref_cache;
    List.iter
      (fun b ->
        ignore
          (Bt.Translate_ref.translate ?rules ~cache:ref_cache
             ~policy_of:(fun _ -> policy) b))
      blocks;
    ref_cache
  in
  (* allocation per block, averaged over enough passes to drown setup *)
  let alloc_words_per_block pass =
    let passes = 10 in
    let before = Gc.minor_words () in
    for _ = 1 to passes do
      ignore (pass ())
    done;
    (Gc.minor_words () -. before) /. float_of_int (passes * n_blocks)
  in
  let measure_config label policy ~with_rules =
    let rules_for () =
      if with_rules then Some (Mda_host.Peephole.activate plain_rules) else None
    in
    let fast_rules = rules_for () and ref_rules = rules_for () in
    let fast = fast_pass ?rules:fast_rules policy in
    let reference = ref_pass ?rules:ref_rules policy in
    let host_insns = Bt.Code_cache.length (fast ()) in
    let host_insns_ref = Bt.Code_cache.length (reference ()) in
    if host_insns <> host_insns_ref then
      failwith
        (Printf.sprintf "BENCH %s: fast/reference cache lengths differ (%d vs %d)"
           label host_insns host_insns_ref);
    let fast_s, ref_s =
      time_pair (fun () -> ignore (fast ())) (fun () -> ignore (reference ()))
    in
    let fast_alloc = alloc_words_per_block fast in
    let ref_alloc = alloc_words_per_block reference in
    let speedup = per_sec n_blocks fast_s /. per_sec n_blocks ref_s in
    Printf.printf
      "  %-14s fast %10.0f tr/s (%5.1f words/block)   reference %9.0f tr/s (%6.1f \
       words/block)   speedup %.2fx\n%!"
      label (per_sec n_blocks fast_s) fast_alloc (per_sec n_blocks ref_s) ref_alloc
      speedup;
    let json =
      Printf.sprintf
        {|      {
        "policy": "%s",
        "host_insns": %d,
        "fast": {
          "per_sec": %.1f,
          "host_insns_per_sec": %.1f,
          "median_ns_per_block": %.1f,
          "alloc_words_per_block": %.1f
        },
        "reference": {
          "per_sec": %.1f,
          "host_insns_per_sec": %.1f,
          "median_ns_per_block": %.1f,
          "alloc_words_per_block": %.1f
        },
        "speedup": %.3f
      }|}
        label host_insns (per_sec n_blocks fast_s) (per_sec host_insns fast_s)
        (fast_s.Mda_util.Timing.median_ns /. float_of_int n_blocks)
        fast_alloc (per_sec n_blocks ref_s) (per_sec host_insns ref_s)
        (ref_s.Mda_util.Timing.median_ns /. float_of_int n_blocks)
        ref_alloc speedup
    in
    (json, per_sec n_blocks fast_s, speedup)
  in
  Printf.printf "== translation throughput (%d blocks, %d guest insns) ==\n%!" n_blocks
    guest_insns;
  let j_seq, seq_rate, seq_speedup = measure_config "seq_always" Bt.Translate.Seq_always ~with_rules:false in
  let j_norm, _, norm_speedup = measure_config "normal" Bt.Translate.Normal ~with_rules:false in
  let j_rules, _, rules_speedup = measure_config "normal+rules" Bt.Translate.Normal ~with_rules:true in
  (* patch latency: rewrite one live slot over and over — the handler's
     hot operation when servicing a trap *)
  let cache = fast_pass Bt.Translate.Normal () in
  let patches_per_rep = 1000 in
  let patch_s =
    time_reps (fun () ->
        for _ = 1 to patches_per_rep do
          Bt.Code_cache.patch cache 0 Mda_host.Isa.Nop
        done)
  in
  let patch_ns = patch_s.Mda_util.Timing.median_ns /. float_of_int patches_per_rep in
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "pr": 9,
  "translation": {
    "workloads": %d,
    "blocks": %d,
    "guest_insns": %d,
    "configs": [
%s
    ],
    "translations_per_sec": %.1f,
    "speedup_vs_reference": %.3f
  },
  "patch": {
    "median_ns": %.1f,
    "patches_per_sec": %.1f
  }
}
|}
    (List.length (W.Spec.selected_names @ [ "stack.frames" ]))
    n_blocks guest_insns
    (String.concat ",\n" [ j_seq; j_norm; j_rules ])
    seq_rate seq_speedup patch_ns
    (1e9 /. patch_ns);
  close_out oc;
  Printf.printf
    "== wrote %s (headline %.0f translations/s, speedup %.2fx seq / %.2fx normal / \
     %.2fx rules) ==\n\n%!"
    path seq_rate seq_speedup norm_speedup rules_speedup

(* --- part 7: serve-layer scheduling throughput -> BENCH_pr10.json ------- *)

let emit_serve_json () =
  let path =
    match Sys.getenv_opt "MDA_BENCH_PR10_JSON" with
    | Some p -> p
    | None -> "BENCH_pr10.json"
  in
  (* fixed population: three tenants (one noisy), two sessions each,
     under EH — the serving layer's default mechanism and the one whose
     trap/patch path the scheduler exercises most *)
  let tenants = 3 in
  let per_tenant = 2 in
  let tspecs = Srv.Tenants.derive ~noisy:[ 1 ] ~seed:0x10aDL ~tenants () in
  let specs ~crash =
    List.concat_map
      (fun (ts : Srv.Tenants.spec) ->
        let entry, _ = Srv.Tenants.fresh_mem ts in
        let config = Bt.Runtime.default_config (Srv.Tenants.mechanism_of ts "eh") in
        List.init per_tenant (fun k ->
            { Srv.Scheduler.tid = ts.Srv.Tenants.tid;
              arrival = k;
              entry;
              fresh_mem = (fun () -> snd (Srv.Tenants.fresh_mem ts));
              config;
              crash_at = (if crash then Some (4 + k) else None);
              first_fuel = None }))
      tspecs
  in
  let cfg = Srv.Scheduler.default_config in
  let plain = specs ~crash:false and crashy = specs ~crash:true in
  let run specs = Srv.Scheduler.run ~tenants cfg specs in
  let probe = run plain in
  let sessions = List.length probe.Srv.Scheduler.report.Srv.Scheduler.sessions in
  let steps =
    List.fold_left
      (fun a (s : Srv.Scheduler.session_report) -> a + s.Srv.Scheduler.dispatches)
      0 probe.Srv.Scheduler.report.Srv.Scheduler.sessions
  in
  let restarts = (run crashy).Srv.Scheduler.report.Srv.Scheduler.restarts in
  if restarts <> sessions then
    failwith
      (Printf.sprintf "BENCH serve: expected one restart per session, got %d/%d" restarts
         sessions);
  (* interleaved rounds: the restart-latency figure is a difference of
     the two medians, so machine drift must land on both sides *)
  let plain_s, crash_s =
    time_pair (fun () -> ignore (run plain)) (fun () -> ignore (run crashy))
  in
  let sessions_per_sec = per_sec sessions plain_s in
  let steps_per_sec = per_sec steps plain_s in
  (* wall-clock cost of one supervised restart: the crashy run re-images
     and re-executes every session once, on top of the plain run *)
  let restart_ns =
    Float.max 0.
      ((crash_s.Mda_util.Timing.median_ns -. plain_s.Mda_util.Timing.median_ns)
      /. float_of_int restarts)
  in
  Printf.printf
    "== serve scheduling (%d tenants, %d sessions, %d steps/run) ==\n\
    \  %10.0f sessions/s   %10.0f steps/s   restart %8.0f ns\n%!"
    tenants sessions steps sessions_per_sec steps_per_sec restart_ns;
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "pr": 10,
  "serve": {
    "tenants": %d,
    "sessions_per_run": %d,
    "steps_per_run": %d,
    "median_ns_per_run": %.1f,
    "sessions_per_sec": %.1f,
    "steps_per_sec": %.1f
  },
  "restart": {
    "restarts_per_run": %d,
    "median_ns_per_restart": %.1f,
    "restarts_per_sec": %.1f
  }
}
|}
    tenants sessions steps plain_s.Mda_util.Timing.median_ns sessions_per_sec
    steps_per_sec restarts restart_ns
    (if restart_ns > 0. then 1e9 /. restart_ns else 0.);
  close_out oc;
  Printf.printf "== wrote %s (headline %.0f sessions/s, %.0f steps/s) ==\n\n%!" path
    sessions_per_sec steps_per_sec

let () =
  let scale =
    match Sys.getenv_opt "MDA_BENCH_SCALE" with
    | Some s -> float_of_string s
    | None -> 1.0
  in
  let part = Sys.getenv_opt "MDA_BENCH_PART" in
  let want p = match part with None -> true | Some s -> s = p in
  (match (Sys.getenv_opt "MDA_BENCH_SKIP_MEASURE", part) with
  | Some "1", _ | _, Some _ -> ()
  | _ -> run_measurements ());
  if want "pr7" then emit_bench_json ();
  if want "pr8" then emit_peephole_json ();
  if want "pr9" then emit_translation_json ();
  if want "pr10" then emit_serve_json ();
  if part = None then begin
    Printf.printf "== Regenerating all tables and figures (scale %.2f) ==\n\n%!" scale;
    let opts = { H.Experiment.default_options with H.Experiment.scale } in
    List.iter
      (fun (_, _, (run : H.Paper.runner)) ->
        print_string (H.Experiment.render (run ~opts ()));
        print_newline ())
      H.Paper.experiments
  end
