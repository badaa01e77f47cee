(* translate-corpus: every statically reachable block of the 21 Table-I
   workloads plus stack.frames, translated into a flushed long-lived
   code cache under three emitter configurations per pass. No simulated
   CPU runs, so this isolates Translate and the peephole tier. The
   corpus is fixed by Table I; the seed is not used. *)

module W = Mda_workloads
module Bt = Mda_bt

let name = "translate-corpus"

let corpus_names = W.Spec.selected_names @ [ "stack.frames" ]

(* (label, policy, with the committed peephole rules) *)
let configs =
  [ ("seq_always", Bt.Translate.Seq_always, false);
    ("normal", Bt.Translate.Normal, false);
    ("normal_rules", Bt.Translate.Normal, true) ]

let layers =
  let d name unit better = { Schema.name; unit; better } in
  [ d "workloads.instantiate_ms" "ms" Schema.Lower;
    d "guest.decode_ns_per_insn" "ns" Schema.Lower ]
  @ List.concat_map
      (fun (c, _, _) ->
        [ d ("translate.ns_per_block." ^ c) "ns" Schema.Lower;
          d ("translate.minor_words_per_block." ^ c) "words" Schema.Lower;
          d ("translate.host_insns." ^ c) "count" Schema.Lower ])
      configs
  @ [ d "peephole.extra_ns_per_block" "ns" Schema.Lower;
      d "peephole.hits" "count" Schema.Higher;
      Bench.overhead_decl name ]

(* The committed peephole rules. *)
let rules_path = Bench.repo_file (Filename.concat "rules" "pr8.rules")

(* Static block discovery, mirroring the AOT walk: every block reachable
   from the entry over direct jump/branch/call targets and
   fall-throughs. *)
let discover_blocks mem ~entry =
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace visited entry ();
  Queue.push entry queue;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    match Bt.Block.discover mem ~pc:(Queue.pop queue) with
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

(* Instantiate and load each corpus workload and discover its blocks,
   one image at a time (each is 8 MiB of guest memory); also the
   seconds spent instantiating and decoding. *)
let corpus () =
  let inst = ref 0. and dec = ref 0. in
  let blocks =
    List.concat_map
      (fun n ->
        let (mem, entry), s =
          Measure.timed (fun () ->
              let w = W.Workload.instantiate n in
              (W.Workload.fresh_memory w, W.Workload.entry w))
        in
        inst := !inst +. s;
        let bs, s = Measure.timed (fun () -> discover_blocks mem ~entry) in
        dec := !dec +. s;
        bs)
      corpus_names
  in
  (Array.of_list blocks, !inst, !dec)

type env = {
  blocks : Bt.Block.t array;
  cache : Bt.Code_cache.t;
  scratch : Bt.Translate.scratch;
  rules : Mda_host.Peephole.active;
}

let setup () =
  let rules =
    match Mda_host.Peephole.load rules_path with
    | Ok rs -> Mda_host.Peephole.activate rs
    | Error e -> failwith ("cannot load " ^ rules_path ^ ": " ^ e)
  in
  let blocks, _, _ = corpus () in
  { blocks;
    cache = Bt.Code_cache.create ();
    scratch = Bt.Translate.create_scratch ();
    rules }

(* One configuration's pass: flush, translate the corpus; the number of
   blocks the translator rejected. *)
let pass env (_, policy, with_rules) =
  Bt.Code_cache.flush env.cache;
  let rules = if with_rules then Some env.rules else None in
  let errors = ref 0 in
  Array.iter
    (fun b ->
      match
        Bt.Translate.translate ?rules ~scratch:env.scratch ~cache:env.cache
          ~policy_of:(fun _ -> policy) b
      with
      | _ -> ()
      | exception Bt.Translate.Error _ -> incr errors)
    env.blocks;
  !errors

let code_digest cache =
  let n = Bt.Code_cache.length cache in
  Digest.string (Marshal.to_string (Array.init n (Bt.Code_cache.fetch cache)) [])

(* A round: every configuration once, each timed; the checks (no
   translation error, the same code digest every repetition) run
   outside the timed part. [span] wraps each configuration's pass in
   the traced run. *)
let round ?(span = fun _ f -> f ()) env checks reference =
  Array.of_list
    (List.map
       (fun ((label, _, _) as cfg) ->
         let errors, s = Measure.timed (fun () -> span label (fun () -> pass env cfg)) in
         let digest = code_digest env.cache in
         Bench.check checks (errors = 0)
           (lazy (Printf.sprintf "%s: %d blocks raised Translate.Error" label errors));
         (match Hashtbl.find_opt reference label with
         | None -> Hashtbl.replace reference label digest
         | Some d ->
           Bench.check checks (String.equal d digest)
             (lazy (label ^ ": emitted code differs between repetitions")));
         s)
       configs)

let measure (ctx : Bench.ctx) checks =
  let env, setup = Measure.setups 15 setup in
  let reference = Hashtbl.create 3 in
  let round () = round env checks reference in
  let rounds = Measure.rounds ~warmup:(fun () -> ignore (round ())) ~seconds:ctx.seconds round in
  { Bench.setup;
    rounds;
    ops_per_s = Measure.rate (Array.length env.blocks * List.length configs) rounds.Measure.wall }

let trace (_ : Bench.ctx) checks =
  let samples = Array.init 3 (fun _ -> corpus ()) in
  let median f = Measure.((stat_of (Array.map f samples)).median) in
  let inst = median (fun (_, s, _) -> s) and decode = median (fun (_, _, s) -> s) in
  let env = setup () in
  let n_blocks = Array.length env.blocks in
  let guest_insns = Array.fold_left (fun n b -> n + Bt.Block.length b) 0 env.blocks in
  let per_block s = s.Mda_util.Timing.median_ns /. float_of_int n_blocks in
  let now = Measure.now in
  let per_config =
    List.concat_map
      (fun ((label, _, _) as cfg) ->
        let s =
          Mda_util.Timing.measure ~now ~rounds:5 ~min_ns:100_000_000L (fun () ->
              ignore (pass env cfg))
        in
        let hits0 = Mda_host.Peephole.total_hits env.rules in
        let (), words =
          Measure.minor_words (fun () ->
              for _ = 1 to 10 do
                ignore (pass env cfg)
              done)
        in
        let hits = (Mda_host.Peephole.total_hits env.rules - hits0) / 10 in
        let host = Bt.Code_cache.length env.cache in
        [ ("translate.ns_per_block." ^ label, Measure.single (per_block s));
          ( "translate.minor_words_per_block." ^ label,
            Measure.single (words /. float_of_int (10 * n_blocks)) );
          ("translate.host_insns." ^ label, Measure.single (float_of_int host)) ]
        @ if label = "normal_rules" then [ ("peephole.hits", Measure.single (float_of_int hits)) ] else [])
      configs
  in
  let cfg l = List.find (fun (c, _, _) -> c = l) configs in
  let plain, ruled =
    Mda_util.Timing.measure_pair ~now ~rounds:5 ~min_ns:100_000_000L
      (fun () -> ignore (pass env (cfg "normal")))
      (fun () -> ignore (pass env (cfg "normal_rules")))
  in
  let reference = Hashtbl.create 3 in
  let spans = Spans.create () in
  let untraced, traced =
    Measure.interleaved 100
      (fun () -> round env checks reference)
      (fun () -> round ~span:(Spans.within spans) env checks reference)
  in
  [ ( "workloads.instantiate_ms",
      Measure.single (1e3 *. inst /. float_of_int (List.length corpus_names)) );
    ("guest.decode_ns_per_insn", Measure.single (1e9 *. decode /. float_of_int guest_insns)) ]
  @ per_config
  @ [ ("peephole.extra_ns_per_block", Measure.single (per_block ruled -. per_block plain));
      ( Bench.trace_overhead name,
        Bench.overhead_pct ~traced:traced.Measure.median ~untraced:untraced.Measure.median ) ]

let workload = { Bench.name; layers; measure; trace }
