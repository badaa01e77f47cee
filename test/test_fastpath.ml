(* The single-pass template emitter vs. the frozen reference.

   PR 9 rebuilt [Translate] around direct-into-cache emission with
   backpatched labels and interned instructions; [Translate_ref] keeps
   the old list-based emitter frozen as the oracle. The property that
   protects every optimisation in the fast path: over random blocks,
   the Table-I corpus and the hand-written .asm examples — under every
   policy, with and without the committed peephole rules — the two
   emitters produce byte-identical code caches: same instructions, same
   entry pcs, same patch-site tables.

   Also here: the satellite regression for out-of-range displacements.
   The old emitter let [Invalid_argument] escape from [li]; the fast
   path raises a typed {!Bt.Translate.Error} before anything is
   published, so the cache is untouched and the arena stays usable. *)

module G = Mda_guest.Isa
module H = Mda_host.Isa
module HP = Mda_host.Pretty
module P = Mda_host.Peephole
module Bt = Mda_bt
module W = Mda_workloads

let committed_rules =
  lazy
    (match P.load Test_util.committed_rules with
    | Ok rs -> rs
    | Error msg -> Alcotest.failf "cannot load rules/pr8.rules: %s" msg)

(* --- cache comparison ------------------------------------------------- *)

let site_list (c : Bt.Code_cache.t) =
  Hashtbl.fold (fun pc s acc -> (pc, s) :: acc) c.Bt.Code_cache.sites []
  |> List.sort compare

(* Byte-identity of two caches: code up to the published length, and
   the patch-site tables (pc, guest addr, block start, mem-op shape). *)
let caches_agree fast reference =
  let lf = Bt.Code_cache.length fast and lr = Bt.Code_cache.length reference in
  if lf <> lr then Error (Printf.sprintf "cache lengths differ: %d vs %d" lf lr)
  else begin
    let bad = ref None in
    (let code_f = fast.Bt.Code_cache.code and code_r = reference.Bt.Code_cache.code in
     try
       for pc = 0 to lf - 1 do
         if code_f.(pc) <> code_r.(pc) then begin
           bad :=
             Some
               (Printf.sprintf "insn at pc %d differs: %s vs %s" pc
                  (HP.insn_to_string code_f.(pc))
                  (HP.insn_to_string code_r.(pc)));
           raise Exit
         end
       done
     with Exit -> ());
    match !bad with
    | Some msg -> Error msg
    | None ->
      let sf = site_list fast and sr = site_list reference in
      if sf <> sr then
        Error
          (Printf.sprintf "site tables differ: %d vs %d entries%s" (List.length sf)
             (List.length sr)
             (match
                List.find_opt (fun (a, b) -> a <> b)
                  (List.combine
                     (List.map fst sf @ [ -1 ])
                     (List.map fst sr @ [ -1 ]))
              with
             | Some (a, b) -> Printf.sprintf " (first pc mismatch %d vs %d)" a b
             | None -> ""))
      else Ok ()
  end

let policies : (string * (int -> Bt.Translate.policy)) list =
  [ ("normal", fun _ -> Bt.Translate.Normal);
    ("seq_always", fun _ -> Bt.Translate.Seq_always);
    ("multi", fun _ -> Bt.Translate.Multi);
    (* address-keyed mix, exercising policy changes mid-block *)
    ( "mixed",
      fun addr ->
        match (addr / 4) mod 3 with
        | 0 -> Bt.Translate.Normal
        | 1 -> Bt.Translate.Seq_always
        | _ -> Bt.Translate.Multi ) ]

(* Translate [blocks] through both emitters into fresh caches and
   compare. Each emitter gets its own [activate]d rule set: hit
   counters are per-activation and must not be shared. *)
let run_both ~rules ~policy_of blocks =
  let fast = Bt.Code_cache.create () and reference = Bt.Code_cache.create () in
  let scratch = Bt.Translate.create_scratch () in
  let rules_f = if rules then Some (P.activate (Lazy.force committed_rules)) else None in
  let rules_r = if rules then Some (P.activate (Lazy.force committed_rules)) else None in
  let entries_ok = ref true in
  List.iter
    (fun blk ->
      let ef = Bt.Translate.translate ?rules:rules_f ~scratch ~cache:fast ~policy_of blk in
      let er = Bt.Translate_ref.translate ?rules:rules_r ~cache:reference ~policy_of blk in
      if ef <> er then entries_ok := false)
    blocks;
  if not !entries_ok then Error "entry pcs differ"
  else caches_agree fast reference

(* --- corpus: Table-I workloads and the .asm examples ------------------- *)

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
        | G.Jmp t -> [ t ]
        | G.Jcc { target; _ } -> [ target; block.Bt.Block.next ]
        | G.Call t -> [ t; block.Bt.Block.next ]
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

let workload_blocks name =
  let w = W.Workload.instantiate name in
  discover_blocks (W.Workload.fresh_memory w) ~entry:(W.Workload.entry w)

let check_workloads names =
  List.iter
    (fun name ->
      let blocks = workload_blocks name in
      if blocks = [] then Alcotest.failf "%s: no blocks discovered" name;
      List.iter
        (fun (pname, policy_of) ->
          List.iter
            (fun rules ->
              match run_both ~rules ~policy_of blocks with
              | Ok () -> ()
              | Error msg ->
                Alcotest.failf "%s / %s / rules=%b: %s" name pname rules msg)
            [ false; true ])
        policies)
    names

let test_corpus_identical () = check_workloads (W.Spec.selected_names @ [ "stack.frames" ])

(* The hand-written examples flow in through the .asm loader path. *)
let test_asm_examples_identical () =
  check_workloads [ Test_asm.tour_path; Test_asm.stack_path ]

(* --- property: random blocks ------------------------------------------ *)

(* Lowerable guest instructions: every int32 immediate lowers, and
   displacements stay far inside the ldah/lda range. Terminators are
   appended separately so they only appear last, as discovery produces. *)
let gen_body_insn =
  let open QCheck.Gen in
  let reg = map G.reg_of_index (int_range 0 7) in
  let size = oneofl [ G.S1; G.S2; G.S4; G.S8 ] in
  let imm =
    (* boundary values stay inside the ldah/lda-lowerable range
       [-0x80000000, 0x7FFF7FFF]; the unlowerable tail is covered by
       the typed-error regression below *)
    oneof
      [ map Int32.of_int (int_range (-0x40000000) 0x3FFFFFFF);
        oneofl [ Int32.min_int; 0x7FFF7FFFl; 0l; -1l ] ]
  in
  let disp = oneof [ int_range (-0x100000) 0x100000; oneofl [ -0x8000; 0x7FFF; 0x8000 ] ] in
  let addr =
    let* disp = disp in
    oneof
      [ return (G.addr_abs disp);
        map (fun b -> G.addr_base ~disp b) reg;
        (let* b = reg and* i = reg and* s = oneofl [ 1; 2; 4; 8 ] in
         return (G.addr_indexed ~disp ~base:b ~index:i ~scale:s ())) ]
  in
  let operand = oneof [ map (fun r -> G.Reg r) reg; map (fun i -> G.Imm i) imm ] in
  frequency
    [ ( 3,
        let* dst = reg and* src = addr and* size = size and* signed = bool in
        return (G.Load { dst; src; size; signed }) );
      ( 3,
        let* src = reg and* dst = addr and* size = size in
        return (G.Store { src; dst; size }) );
      ( 2,
        let* dst = reg and* imm = imm in
        return (G.Mov_imm { dst; imm }) );
      ( 1,
        let* dst = reg and* src = reg in
        return (G.Mov_reg { dst; src }) );
      ( 2,
        let* op = oneofl (Array.to_list G.all_binops) in
        let* dst = reg and* src = operand in
        return (G.Binop { op; dst; src }) );
      ( 1,
        let* a = reg and* b = operand in
        return (G.Cmp { a; b }) );
      ( 1,
        let* a = reg and* b = operand in
        return (G.Test { a; b }) );
      ( 1,
        let* dst = reg and* src = addr in
        return (G.Lea { dst; src }) );
      ( 2,
        let* op = oneofl [ G.Add; G.Sub; G.And; G.Or; G.Xor ] in
        let* dst = addr and* src = operand and* size = oneofl [ G.S1; G.S2; G.S4 ] in
        return (G.Rmw { op; dst; src; size }) );
      (1, map (fun r -> G.Push r) reg);
      (1, map (fun r -> G.Pop r) reg);
      (1, return G.Nop) ]

let gen_terminator =
  let open QCheck.Gen in
  oneof
    [ map (fun t -> G.Jmp t) (int_range 0 0xFFFFFF);
      (let* cond = oneofl (Array.to_list G.all_conds) in
       let* target = int_range 0 0xFFFFFF in
       return (G.Jcc { cond; target }));
      map (fun t -> G.Call t) (int_range 0 0xFFFFFF);
      return G.Ret;
      return G.Halt ]

let gen_case =
  let open QCheck.Gen in
  let* body = list_size (int_range 0 16) gen_body_insn in
  let* term = gen_terminator in
  let* start = map (fun k -> 0x1000 + (4 * k)) (int_range 0 0x1000) in
  let* pol = int_range 0 (List.length policies - 1) in
  let* rules = bool in
  let insns = Array.of_list (body @ [ term ]) in
  let addrs = Array.init (Array.length insns) (fun i -> start + (i * 4)) in
  return
    ( { Bt.Block.start; insns; addrs; next = start + (4 * Array.length insns) },
      pol,
      rules )

let print_case (blk, pol, rules) =
  Printf.sprintf "policy=%s rules=%b start=%#x\n%s"
    (fst (List.nth policies pol))
    rules blk.Bt.Block.start
    (String.concat "\n"
       (Array.to_list (Array.map Mda_guest.Pretty.insn_to_string blk.Bt.Block.insns)))

let prop_random_identical =
  QCheck.Test.make ~name:"fast emitter byte-identical to reference (random blocks)"
    ~count:400
    (QCheck.make gen_case ~print:print_case)
    (fun (blk, pol, rules) ->
      let _, policy_of = List.nth policies pol in
      match run_both ~rules ~policy_of [ blk ] with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* --- boundary immediates and displacements ----------------------------- *)

let load_with_disp disp =
  { Bt.Block.start = 0x2000;
    insns =
      [| G.Load { dst = G.EAX; src = G.addr_abs disp; size = G.S4; signed = true };
         G.Halt |];
    addrs = [| 0x2000; 0x2004 |];
    next = 0x2008 }

let mov_with_imm imm =
  { Bt.Block.start = 0x2000;
    insns = [| G.Mov_imm { dst = G.EAX; imm }; G.Halt |];
    addrs = [| 0x2000; 0x2004 |];
    next = 0x2008 }

let policy_of_normal _ = Bt.Translate.Normal

(* Lowerable extremes succeed and still match the reference. *)
let test_boundary_lowerable () =
  List.iter
    (fun blk ->
      match run_both ~rules:false ~policy_of:policy_of_normal [ blk ] with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "lowerable boundary case diverged: %s" msg)
    [ load_with_disp 0x7FFF;
      load_with_disp 0x8000;
      load_with_disp (-0x8000);
      load_with_disp (-0x8001);
      (* largest positive value the ldah/lda split can reach *)
      load_with_disp 0x7FFF7FFF;
      load_with_disp (-0x80000000);
      mov_with_imm 0x7FFF7FFFl;
      mov_with_imm Int32.min_int;
      mov_with_imm (-1l) ]

(* Unlowerable displacements raise the typed error with the faulting
   guest address, publish nothing, and leave the arena reusable. *)
let test_boundary_unlowerable () =
  let cache = Bt.Code_cache.create () in
  let scratch = Bt.Translate.create_scratch () in
  List.iter
    (fun (name, blk) ->
      match Bt.Translate.translate ~scratch ~cache ~policy_of:policy_of_normal blk with
      | (_ : int) -> Alcotest.failf "%s: expected Translate.Error" name
      | exception Bt.Translate.Error e ->
        Alcotest.(check int) "faulting guest address" 0x2000 e.Bt.Translate.guest_addr;
        Alcotest.(check int) "nothing published" 0 (Bt.Code_cache.length cache);
        Alcotest.(check int) "no sites registered" 0
          (Hashtbl.length cache.Bt.Code_cache.sites))
    [ ("disp 0x7FFF8000", load_with_disp 0x7FFF8000);
      ("disp 2^32", load_with_disp (1 lsl 32));
      ("imm int32 max", mov_with_imm Int32.max_int) ];
  (* the frozen reference still shows the pre-PR9 behaviour this PR fixes *)
  (match
     Bt.Translate_ref.translate ~cache:(Bt.Code_cache.create ())
       ~policy_of:policy_of_normal (load_with_disp 0x7FFF8000)
   with
  | (_ : int) -> Alcotest.fail "reference emitter: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* same arena and cache translate a good block afterwards, identically *)
  let reference = Bt.Code_cache.create () in
  let blk = load_with_disp 0x7FFF7FFF in
  let ef = Bt.Translate.translate ~scratch ~cache ~policy_of:policy_of_normal blk in
  let er = Bt.Translate_ref.translate ~cache:reference ~policy_of:policy_of_normal blk in
  Alcotest.(check int) "entry pc after recovery" er ef;
  match caches_agree cache reference with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-failure translation diverged: %s" msg

let suite =
  [ ( "bt.fastpath",
      [ Alcotest.test_case "corpus: Table-I workloads identical" `Slow
          test_corpus_identical;
        Alcotest.test_case "corpus: .asm examples identical" `Quick
          test_asm_examples_identical;
        Alcotest.test_case "boundary: lowerable extremes match reference" `Quick
          test_boundary_lowerable;
        Alcotest.test_case "boundary: unlowerable raises typed error, cache untouched"
          `Quick test_boundary_unlowerable;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5009 |])
          prop_random_identical ] ) ]
