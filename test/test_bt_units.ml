(* Unit tests for the DBT's building blocks: block discovery, profiling,
   the code cache, and translation details. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module H = Mda_host.Isa
module Machine = Mda_machine
module Bt = Mda_bt

(* --- Block ----------------------------------------------------------------- *)

let load_insns insns =
  let image, offsets = G.Encode.encode_program (Array.of_list insns) in
  let mem = Machine.Memory.create ~size_bytes:65536 in
  Machine.Memory.load_image mem ~addr:0x1000 image;
  (mem, Array.map (fun o -> o + 0x1000) offsets)

let test_block_discovery () =
  let mem, offsets =
    load_insns
      [ GI.Mov_imm { dst = GI.EAX; imm = 1l };
        GI.Binop { op = GI.Add; dst = GI.EAX; src = GI.Imm 2l };
        GI.Jmp 0x1000;
        GI.Halt (* unreachable, next block *) ]
  in
  match Bt.Block.discover mem ~pc:0x1000 with
  | Ok b ->
    Alcotest.(check int) "3 insns" 3 (Bt.Block.length b);
    Alcotest.(check int) "start" 0x1000 b.Bt.Block.start;
    Alcotest.(check int) "next = halt's addr" offsets.(3) b.Bt.Block.next;
    Alcotest.(check (array int)) "addrs" (Array.sub offsets 0 3) b.Bt.Block.addrs
  | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e

let test_block_ends_at_every_terminator () =
  List.iter
    (fun (term : GI.insn) ->
      let mem, _ = load_insns [ GI.Nop; term; GI.Nop ] in
      match Bt.Block.discover mem ~pc:0x1000 with
      | Ok b ->
        Alcotest.(check int)
          (Mda_guest.Pretty.insn_to_string term)
          2 (Bt.Block.length b)
      | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e)
    [ GI.Jmp 0; GI.Jcc { cond = GI.Eq; target = 0 }; GI.Call 0; GI.Ret; GI.Halt ]

let test_block_too_long () =
  let mem, _ = load_insns (List.init 100 (fun _ -> GI.Nop) @ [ GI.Halt ]) in
  match Bt.Block.discover ~max_insns:10 mem ~pc:0x1000 with
  | Error (Bt.Block.Too_long { limit = 10; _ }) -> ()
  | _ -> Alcotest.fail "expected Too_long"

let test_block_decode_error () =
  let mem = Machine.Memory.create ~size_bytes:65536 in
  Machine.Memory.write_u8 mem 0x1000 0xFF;
  match Bt.Block.discover mem ~pc:0x1000 with
  | Error (Bt.Block.Decode_failed _) -> ()
  | _ -> Alcotest.fail "expected Decode_failed"

(* Discovery decodes in place from 4 KiB pages: an instruction or a
   decode error that straddles a page boundary, or runs off the end of
   memory, must come out exactly as the flat decoder reads it from a
   copy of the whole memory, with absolute positions and offsets. *)
let test_block_page_straddle () =
  let page = Machine.Memory.page_size in
  let size_bytes = (2 * page) + 100 in
  let flat mem pc =
    let bytes = Machine.Memory.raw mem in
    let rec go pos acc =
      match G.Decode.decode bytes ~pos with
      | Error e -> Error e
      | Ok (insn, next) ->
        let acc = (pos, insn) :: acc in
        if GI.is_block_end insn then Ok (List.rev acc, next) else go next acc
    in
    go pc []
  in
  let agrees mem pc =
    let paged =
      match Bt.Block.discover mem ~pc with
      | Ok b ->
        Ok (List.combine (Array.to_list b.Bt.Block.addrs) (Array.to_list b.Bt.Block.insns),
            b.Bt.Block.next)
      | Error (Bt.Block.Decode_failed e) -> Error e
      | Error e -> Alcotest.failf "discover at %#x: %a" pc Bt.Block.pp_error e
    in
    let flat = flat mem pc in
    Alcotest.(check bool) (Printf.sprintf "block at %#x matches the flat decoder" pc) true
      (paged = flat);
    flat
  in
  let longest =
    GI.Rmw
      { op = GI.Add;
        dst = { GI.base = Some GI.EBX; index = Some (GI.ECX, 4); disp = -123456 };
        src = GI.Imm 0x12345678l;
        size = GI.S4 }
  in
  let insns =
    [ longest;
      GI.Load
        { dst = GI.EAX; src = GI.addr_base ~disp:0x7FF0 GI.ESI; size = GI.S8; signed = false };
      GI.Jcc { cond = GI.Ne; target = 0x2000 };
      GI.Mov_imm { dst = GI.EDX; imm = -1l } ]
  in
  List.iter
    (fun insn ->
      let image = Bytes.cat (G.Encode.encode insn) (G.Encode.encode GI.Halt) in
      let len = Bytes.length image - 1 in
      (* across each interior boundary: decodes, whole *)
      List.iter
        (fun boundary ->
          for shift = 1 to len - 1 do
            let mem = Machine.Memory.create ~size_bytes in
            let pc = boundary - shift in
            Machine.Memory.load_image mem ~addr:pc image;
            match agrees mem pc with
            | Ok (got, next) ->
              let ends = GI.is_block_end insn in
              Alcotest.(check (list (pair int string))) "straddling insn decoded"
                ((pc, G.Pretty.insn_to_string insn)
                :: (if ends then [] else [ (pc + len, "hlt") ]))
                (List.map (fun (a, i) -> (a, G.Pretty.insn_to_string i)) got);
              Alcotest.(check int) "next is absolute" (pc + len + if ends then 0 else 1) next
            | Error e -> Alcotest.failf "%a" G.Decode.pp_error e
          done)
        [ page; 2 * page ];
      (* cut off by the end of memory: a truncation error at [pc] *)
      for shift = 1 to len - 1 do
        let mem = Machine.Memory.create ~size_bytes in
        let pc = size_bytes - shift in
        Machine.Memory.load_image mem ~addr:pc (Bytes.sub image 0 shift);
        match agrees mem pc with
        | Error e -> Alcotest.(check int) "error offset is absolute" pc e.G.Decode.offset
        | Ok _ -> Alcotest.fail "decoded past the end of memory"
      done)
    insns;
  (* seeded noise around every boundary: errors agree too *)
  let rng = Random.State.make [| 20 |] in
  let mem = Machine.Memory.create ~size_bytes in
  List.iter
    (fun boundary ->
      for a = boundary - 16 to min (boundary + 15) (size_bytes - 1) do
        Machine.Memory.write_u8 mem a (Random.State.int rng 0x14)
      done;
      for pc = boundary - 16 to boundary - 1 do
        ignore (agrees mem pc)
      done)
    [ page; 2 * page; size_bytes ]

let test_block_mem_sites () =
  let mem, offsets =
    load_insns
      [ GI.Load { dst = GI.EAX; src = GI.addr_abs 0; size = GI.S4; signed = false };
        GI.Nop;
        GI.Store { src = GI.EAX; dst = GI.addr_abs 8; size = GI.S2 };
        GI.Ret ]
  in
  match Bt.Block.discover mem ~pc:0x1000 with
  | Ok b ->
    let sites = Bt.Block.mem_sites b in
    (* load, store, and Ret's stack pop *)
    Alcotest.(check int) "3 memory sites" 3 (List.length sites);
    (match sites with
    | (a0, `Load, GI.S4) :: (a2, `Store, GI.S2) :: (a3, `Load, GI.S4) :: [] ->
      Alcotest.(check int) "load addr" offsets.(0) a0;
      Alcotest.(check int) "store addr" offsets.(2) a2;
      Alcotest.(check int) "ret addr" offsets.(3) a3
    | _ -> Alcotest.fail "unexpected site structure")
  | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e

(* --- Profile ----------------------------------------------------------------- *)

let test_profile_counting () =
  let p = Bt.Profile.create () in
  Bt.Profile.record p ~guest_addr:100 ~aligned:true;
  Bt.Profile.record p ~guest_addr:100 ~aligned:false;
  Bt.Profile.record p ~guest_addr:100 ~aligned:false;
  Bt.Profile.record p ~guest_addr:200 ~aligned:true;
  Alcotest.(check bool) "100 is MDA site" true (Bt.Profile.is_mda_site p 100);
  Alcotest.(check bool) "200 is not" false (Bt.Profile.is_mda_site p 200);
  Alcotest.(check bool) "300 unknown" false (Bt.Profile.is_mda_site p 300);
  Alcotest.(check (float 1e-9)) "ratio" (2. /. 3.) (Bt.Profile.mda_ratio p 100);
  Alcotest.(check (pair int int)) "totals" (4, 2) (Bt.Profile.totals p);
  Alcotest.(check int) "nmi" 1 (Bt.Profile.nmi p)

let test_profile_summary () =
  let p = Bt.Profile.create () in
  Bt.Profile.record p ~guest_addr:1 ~aligned:false;
  Bt.Profile.record p ~guest_addr:2 ~aligned:true;
  let s = Bt.Profile.summarize p in
  Alcotest.(check bool) "1 in summary" true (Bt.Profile.summary_mem s 1);
  Alcotest.(check bool) "2 not in summary" false (Bt.Profile.summary_mem s 2);
  Alcotest.(check int) "size" 1 (Bt.Profile.summary_size s);
  Alcotest.(check int) "empty summary" 0
    (Bt.Profile.summary_size (Bt.Profile.empty_summary ()))

let test_profile_bias_classes () =
  let p = Bt.Profile.create () in
  let feed addr ~total ~mis =
    for i = 1 to total do
      Bt.Profile.record p ~guest_addr:addr ~aligned:(i > mis)
    done
  in
  feed 1 ~total:10 ~mis:10;
  (* always *)
  feed 2 ~total:10 ~mis:5;
  (* =50% *)
  feed 3 ~total:10 ~mis:2;
  (* <50% *)
  feed 4 ~total:10 ~mis:9;
  (* >50% *)
  feed 5 ~total:10 ~mis:0;
  (* not an MDA site: excluded *)
  let lt, eq, gt, always = Bt.Profile.bias_histogram p in
  Alcotest.(check (list int)) "histogram" [ 1; 1; 1; 1 ] [ lt; eq; gt; always ]

(* --- Code_cache ----------------------------------------------------------------- *)

let test_cache_emit_fetch_patch () =
  let c = Bt.Code_cache.create ~initial:2 () in
  let e1 = Bt.Code_cache.emit c [ H.Nop; H.Nop; H.Nop ] in
  Alcotest.(check int) "first emit at 0" 0 e1;
  let e2 = Bt.Code_cache.emit c [ H.Monitor H.Prog_halt ] in
  Alcotest.(check int) "second emit appended" 3 e2;
  Alcotest.(check int) "length" 4 (Bt.Code_cache.length c);
  Bt.Code_cache.patch c 1 (H.Br { ra = H.r31; target = 3 });
  (match Bt.Code_cache.fetch c 1 with
  | H.Br { target = 3; _ } -> ()
  | _ -> Alcotest.fail "patch not visible");
  Alcotest.(check int) "patch counter" 1 c.Bt.Code_cache.patches

let test_cache_fetch_out_of_range () =
  let c = Bt.Code_cache.create () in
  try
    ignore (Bt.Code_cache.fetch c 0);
    Alcotest.fail "expected Fatal"
  with Machine.Cpu.Fatal _ -> ()

let test_cache_sites () =
  let c = Bt.Code_cache.create () in
  let op : Mda_host.Mda_seq.mem_op =
    { kind = `Load; data = 1; base = 2; disp = 0; width = 4; signed = true }
  in
  Bt.Code_cache.register_site c ~pc:5 { guest_addr = 0x1000; block_start = 0x1000; op };
  Alcotest.(check bool) "site found" true (Bt.Code_cache.find_site c 5 <> None);
  Bt.Code_cache.remove_sites_in c (0, 10);
  Alcotest.(check bool) "site removed" true (Bt.Code_cache.find_site c 5 = None)

let test_cache_invalidate_repatches_chains () =
  let c = Bt.Code_cache.create () in
  let entry = Bt.Code_cache.emit c [ H.Nop; H.Monitor H.Prog_halt ] in
  let chain_pc = Bt.Code_cache.emit c [ H.Br { ra = H.r31; target = entry } ] in
  let b = Bt.Code_cache.block c 0x4000 in
  b.entry <- Some entry;
  b.host_range <- Some (entry, entry + 2);
  b.in_chains <- [ chain_pc ];
  Bt.Code_cache.invalidate c b ~repatch:(fun _ -> H.Monitor (H.Next_guest 0x4000));
  Alcotest.(check bool) "entry cleared" true (b.entry = None);
  Alcotest.(check bool) "chains cleared" true (b.in_chains = []);
  match Bt.Code_cache.fetch c chain_pc with
  | H.Monitor (H.Next_guest 0x4000) -> ()
  | _ -> Alcotest.fail "chain not repatched"

(* --- Translate ----------------------------------------------------------------- *)

let translate_one ?(policy = Bt.Translate.Normal) insns =
  let mem, _ = load_insns insns in
  match Bt.Block.discover mem ~pc:0x1000 with
  | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e
  | Ok block ->
    let cache = Bt.Code_cache.create () in
    let entry = Bt.Translate.translate ~cache ~policy_of:(fun _ -> policy) block in
    (cache, entry)

let host_insns cache = Array.sub cache.Bt.Code_cache.code 0 (Bt.Code_cache.length cache)

let test_translate_registers_sites () =
  let cache, _ =
    translate_one
      [ GI.Load { dst = GI.EAX; src = GI.addr_abs 0x2000; size = GI.S4; signed = false };
        GI.Store { src = GI.EAX; dst = GI.addr_abs 0x2004; size = GI.S8 };
        GI.Load { dst = GI.EBX; src = GI.addr_abs 0x2008; size = GI.S1; signed = false };
        GI.Halt ]
  in
  Alcotest.(check int) "two restricted sites (S1 load exempt)" 2
    (Hashtbl.length cache.Bt.Code_cache.sites)

let test_translate_seq_policy_has_no_sites () =
  let cache, _ =
    translate_one ~policy:Bt.Translate.Seq_always
      [ GI.Load { dst = GI.EAX; src = GI.addr_abs 0x2000; size = GI.S4; signed = false };
        GI.Halt ]
  in
  Alcotest.(check int) "no patch sites under Seq_always" 0
    (Hashtbl.length cache.Bt.Code_cache.sites);
  (* and the code contains ldq_u instructions *)
  let has_ldq_u =
    Array.exists (function H.Ldq_u _ -> true | _ -> false) (host_insns cache)
  in
  Alcotest.(check bool) "uses ldq_u" true has_ldq_u

let test_translate_multi_emits_both_paths () =
  let cache, _ =
    translate_one ~policy:Bt.Translate.Multi
      [ GI.Load { dst = GI.EAX; src = GI.addr_abs 0x2000; size = GI.S4; signed = false };
        GI.Halt ]
  in
  let code = host_insns cache in
  let has insn_pred = Array.exists insn_pred code in
  Alcotest.(check bool) "has aligned ldl" true
    (has (function H.Ldl _ -> true | _ -> false));
  Alcotest.(check bool) "has unaligned ldq_u" true
    (has (function H.Ldq_u _ -> true | _ -> false));
  Alcotest.(check bool) "has alignment test" true
    (has (function H.Opr { op = H.And; rb = H.Lit 3; _ } -> true | _ -> false))

let test_translate_jcc_two_exits () =
  let cache, _ =
    translate_one
      [ GI.Cmp { a = GI.EAX; b = GI.Imm 0l };
        GI.Jcc { cond = GI.Eq; target = 0x1000 } ]
  in
  let monitors =
    Array.to_list (host_insns cache)
    |> List.filter_map (function H.Monitor (H.Next_guest g) -> Some g | _ -> None)
  in
  Alcotest.(check int) "two static exits" 2 (List.length monitors);
  Alcotest.(check bool) "taken exit targets loop head" true (List.mem 0x1000 monitors)

let test_translate_ret_dynamic_exit () =
  let cache, _ = translate_one [ GI.Ret ] in
  let has_dyn =
    Array.exists
      (function H.Monitor (H.Dyn_guest _) -> true | _ -> false)
      (host_insns cache)
  in
  Alcotest.(check bool) "ret exits dynamically" true has_dyn

let test_translate_large_disp () =
  (* displacement beyond 16 bits must be materialized, not truncated *)
  let cache, _ =
    translate_one
      [ GI.Load
          { dst = GI.EAX; src = GI.addr_base ~disp:0x123456 GI.EBX; size = GI.S4;
            signed = false };
        GI.Halt ]
  in
  let has_ldah =
    Array.exists (function H.Ldah _ -> true | _ -> false) (host_insns cache)
  in
  Alcotest.(check bool) "uses ldah for high bits" true has_ldah

let test_translate_nop_free () =
  let cache, _ = translate_one [ GI.Nop; GI.Nop; GI.Halt ] in
  Alcotest.(check int) "nops cost nothing" 1 (Bt.Code_cache.length cache)

let suite =
  [ ( "bt.block",
      [ Alcotest.test_case "discovery" `Quick test_block_discovery;
        Alcotest.test_case "every terminator ends" `Quick test_block_ends_at_every_terminator;
        Alcotest.test_case "too long" `Quick test_block_too_long;
        Alcotest.test_case "decode error" `Quick test_block_decode_error;
        Alcotest.test_case "page-straddling decode" `Quick test_block_page_straddle;
        Alcotest.test_case "memory sites" `Quick test_block_mem_sites ] );
    ( "bt.profile",
      [ Alcotest.test_case "counting" `Quick test_profile_counting;
        Alcotest.test_case "summary" `Quick test_profile_summary;
        Alcotest.test_case "bias classes" `Quick test_profile_bias_classes ] );
    ( "bt.code_cache",
      [ Alcotest.test_case "emit/fetch/patch" `Quick test_cache_emit_fetch_patch;
        Alcotest.test_case "fetch out of range" `Quick test_cache_fetch_out_of_range;
        Alcotest.test_case "sites" `Quick test_cache_sites;
        Alcotest.test_case "invalidate repatches chains" `Quick
          test_cache_invalidate_repatches_chains ] );
    ( "bt.translate",
      [ Alcotest.test_case "registers patch sites" `Quick test_translate_registers_sites;
        Alcotest.test_case "Seq_always has no sites" `Quick
          test_translate_seq_policy_has_no_sites;
        Alcotest.test_case "Multi emits both paths" `Quick
          test_translate_multi_emits_both_paths;
        Alcotest.test_case "Jcc has two exits" `Quick test_translate_jcc_two_exits;
        Alcotest.test_case "Ret exits dynamically" `Quick test_translate_ret_dynamic_exit;
        Alcotest.test_case "large displacement" `Quick test_translate_large_disp;
        Alcotest.test_case "nops are free" `Quick test_translate_nop_free ] ) ]
