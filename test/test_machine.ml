(* Tests for the machine simulator: memory, caches, hierarchy costs, and
   the host CPU including alignment-trap delivery. *)

module H = Mda_host.Isa
module Machine = Mda_machine
module Memory = Mda_machine.Memory
module Cache = Mda_machine.Cache
module Cpu = Mda_machine.Cpu
module Cost = Mda_machine.Cost_model

(* --- memory --------------------------------------------------------------- *)

let test_memory_endianness () =
  let m = Memory.create ~size_bytes:64 in
  Memory.write m ~addr:0 ~size:4 0x11223344L;
  Alcotest.(check int) "byte 0 is LSB" 0x44 (Memory.read_u8 m 0);
  Alcotest.(check int) "byte 3 is MSB" 0x11 (Memory.read_u8 m 3)

let test_memory_rw_roundtrip () =
  let m = Memory.create ~size_bytes:64 in
  List.iter
    (fun (size, v) ->
      Memory.write m ~addr:8 ~size v;
      Alcotest.(check int64)
        (Printf.sprintf "size %d" size)
        (Mda_util.Bits.truncate ~size v)
        (Memory.read m ~addr:8 ~size))
    [ (1, 0xABL); (2, 0xBEEFL); (4, 0xDEADBEEFL); (8, 0x0102030405060708L) ]

let test_memory_misaligned_rw () =
  (* storage is alignment-agnostic: odd addresses work byte-exactly *)
  let m = Memory.create ~size_bytes:64 in
  Memory.write m ~addr:3 ~size:8 0x1122334455667788L;
  Alcotest.(check int64) "misaligned quad" 0x1122334455667788L (Memory.read m ~addr:3 ~size:8);
  Alcotest.(check int64) "overlapping long" 0x55667788L (Memory.read m ~addr:3 ~size:4)

let test_memory_bounds () =
  let m = Memory.create ~size_bytes:16 in
  (try
     ignore (Memory.read m ~addr:13 ~size:4);
     Alcotest.fail "expected Out_of_bounds"
   with Memory.Out_of_bounds { addr = 13; size = 4; limit = 16 } -> ());
  try
    ignore (Memory.read m ~addr:(-1) ~size:1);
    Alcotest.fail "expected Out_of_bounds"
  with Memory.Out_of_bounds _ -> ()

let test_memory_load_image () =
  let m = Memory.create ~size_bytes:64 in
  Memory.load_image m ~addr:10 (Bytes.of_string "abc");
  Alcotest.(check int) "a" (Char.code 'a') (Memory.read_u8 m 10);
  Alcotest.(check int) "c" (Char.code 'c') (Memory.read_u8 m 12);
  (* an image spanning a page boundary *)
  let m = Memory.create ~size_bytes:(2 * Memory.page_size) in
  Memory.load_image m ~addr:(Memory.page_size - 2) (Bytes.of_string "wxyz");
  Alcotest.(check int64) "spans the boundary" 0x7A797877L
    (Memory.read m ~addr:(Memory.page_size - 2) ~size:4)

(* Every size at every page offset from 4088 to 4095: a write reads
   back, and its bytes land little-endian on both sides of the 4 KiB
   page boundary. *)
let test_memory_page_straddle () =
  let page = Memory.page_size in
  List.iter
    (fun size ->
      for off = page - 8 to page - 1 do
        let m = Memory.create ~size_bytes:(2 * page) in
        let v = Mda_util.Bits.truncate ~size 0x8877665544332211L in
        Memory.write m ~addr:off ~size v;
        let name = Printf.sprintf "size %d at +%d" size off in
        Alcotest.(check int64) (name ^ ": round-trip") v (Memory.read m ~addr:off ~size);
        for i = 0 to size - 1 do
          Alcotest.(check int) (Printf.sprintf "%s: byte %d" name i) (0x11 * (i + 1))
            (Memory.read_u8 m (off + i))
        done;
        Alcotest.(check int) (name ^ ": byte before untouched") 0 (Memory.read_u8 m (off - 1));
        Alcotest.(check int) (name ^ ": byte after untouched") 0
          (Memory.read_u8 m (off + size))
      done)
    [ 1; 2; 4; 8 ]

(* The digest sees contents, not page history. *)
let test_memory_digest () =
  let size_bytes = 3 * Memory.page_size in
  let fresh = Memory.create ~size_bytes in
  let rezeroed = Memory.create ~size_bytes in
  Memory.write rezeroed ~addr:(Memory.page_size - 2) ~size:8 0x0102030405060708L;
  Memory.write rezeroed ~addr:(Memory.page_size - 2) ~size:8 0L;
  Alcotest.(check string) "written then re-zeroed = fresh" (Memory.digest fresh)
    (Memory.digest rezeroed);
  let one = Memory.create ~size_bytes in
  Memory.write_u8 one (2 * Memory.page_size + 5) 1;
  Alcotest.(check bool) "one differing byte changes it" false
    (String.equal (Memory.digest fresh) (Memory.digest one));
  Alcotest.(check bool) "raw copy is flat" true
    (Bytes.equal (Memory.raw one)
       (let b = Bytes.make size_bytes '\000' in
        Bytes.set b ((2 * Memory.page_size) + 5) '\001';
        b))

(* --- cache ------------------------------------------------------------------ *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64)

let test_cache_lru_eviction () =
  (* 1024 B, 2-way, 64 B lines -> 8 sets; lines mapping to set 0 are
     multiples of 512 *)
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 512);
  (* touch 0 so 512 is LRU *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  (* evicts 512 *)
  Alcotest.(check bool) "0 still cached" true (Cache.access c 0);
  Alcotest.(check bool) "512 was evicted" false (Cache.access c 512)

let test_cache_stats_and_invalidate () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  let hits, misses = Cache.stats c in
  Alcotest.(check (pair int int)) "stats" (1, 1) (hits, misses);
  Cache.invalidate_all c;
  Alcotest.(check bool) "miss after invalidate" false (Cache.access c 0)

let test_cache_validation () =
  Alcotest.check_raises "non-power-of-two line"
    (Invalid_argument "Cache.create: line_bytes (48) must be a power of two")
    (fun () -> ignore (Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:48))

(* --- hierarchy ---------------------------------------------------------------- *)

let test_hierarchy_costs () =
  let cost = Cost.default in
  let h = Mda_machine.Hierarchy.create cost in
  (* cold: L1 miss and L2 miss *)
  Alcotest.(check int) "cold access" cost.Cost.l2_miss
    (Mda_machine.Hierarchy.access_data h ~addr:0 ~size:4);
  Alcotest.(check int) "warm access free" 0
    (Mda_machine.Hierarchy.access_data h ~addr:0 ~size:4);
  (* line-crossing access touches two lines *)
  Alcotest.(check int) "crossing adds a cold line" cost.Cost.l2_miss
    (Mda_machine.Hierarchy.access_data h ~addr:62 ~size:4)

(* An aligned access looks up one L1D line; a straddling one looks up
   its own line and the next line's base, and stalls for both. *)
let test_hierarchy_straddle () =
  let cost = Cost.default in
  let h = Mda_machine.Hierarchy.create cost in
  let l1d = h.Mda_machine.Hierarchy.l1d in
  let lookups () =
    let hits, misses = Cache.stats l1d in
    hits + misses
  in
  Alcotest.(check int) "aligned: cold stall" cost.Cost.l2_miss
    (Mda_machine.Hierarchy.access_data h ~addr:0 ~size:8);
  Alcotest.(check int) "aligned: one lookup" 1 (lookups ());
  (* 60+8: line 0 (warm) and line 64 (cold) *)
  Alcotest.(check int) "straddle: warm line + cold line" (0 + cost.Cost.l2_miss)
    (Mda_machine.Hierarchy.access_data h ~addr:60 ~size:8);
  Alcotest.(check int) "straddle: two lookups" 3 (lookups ());
  Alcotest.(check (pair int int)) "straddle: one hit, one miss" (1, 2) (Cache.stats l1d);
  Alcotest.(check bool) "the second lookup filled line 64" true (Cache.access l1d 64);
  Alcotest.(check bool) "and no later line" false (Cache.access l1d 128);
  let h = Mda_machine.Hierarchy.create cost in
  Alcotest.(check int) "cold straddle: both lines stall" (2 * cost.Cost.l2_miss)
    (Mda_machine.Hierarchy.access_data h ~addr:60 ~size:8)

(* --- cpu ------------------------------------------------------------------------ *)

let mk_cpu () =
  let cost = Cost.default in
  let mem = Memory.create ~size_bytes:65536 in
  let hier = Mda_machine.Hierarchy.create cost in
  (Cpu.create ~mem ~hier ~cost (), mem)

(* Run a bare instruction array as the code store. *)
let run_array cpu code ~fuel =
  Cpu.run cpu ~src:code ~code_of:Fun.id ~len_of:Array.length ~entry:0 ~fuel

let run cpu code = run_array cpu (Array.of_list code) ~fuel:10_000

let test_cpu_r31_hardwired () =
  let cpu, _ = mk_cpu () in
  Cpu.set cpu 31 42L;
  Alcotest.(check int64) "r31 reads zero" 0L (Cpu.get cpu 31);
  let _ =
    run cpu [ H.Lda { ra = 31; rb = 31; disp = 7 }; H.Monitor H.Prog_halt ]
  in
  Alcotest.(check int64) "writes discarded" 0L (Cpu.get cpu 31);
  (* slots 32 and 33 of the register file are not registers *)
  List.iter
    (fun r ->
      Alcotest.check_raises (Printf.sprintf "get r%d" r)
        (Invalid_argument (Printf.sprintf "Cpu: register %d" r))
        (fun () -> ignore (Cpu.get cpu r));
      Alcotest.check_raises (Printf.sprintf "set r%d" r)
        (Invalid_argument (Printf.sprintf "Cpu: register %d" r))
        (fun () -> Cpu.set cpu r 1L))
    [ -1; 32; 33 ]

let test_cpu_lda_ldah () =
  let cpu, _ = mk_cpu () in
  let _ =
    run cpu
      [ H.Ldah { ra = 1; rb = 31; disp = 2 };
        H.Lda { ra = 1; rb = 1; disp = -4 };
        H.Monitor H.Prog_halt ]
  in
  Alcotest.(check int64) "ldah/lda pair" (Int64.of_int ((2 * 65536) - 4)) (Cpu.get cpu 1)

let test_cpu_branches () =
  let cpu, _ = mk_cpu () in
  (* beq taken skips the poison write *)
  let _ =
    run cpu
      [ H.Bcond { cond = H.Beq; ra = 31; target = 2 };
        H.Lda { ra = 1; rb = 31; disp = 99 };
        H.Monitor H.Prog_halt ]
  in
  Alcotest.(check int64) "branch taken" 0L (Cpu.get cpu 1);
  let cpu2, _ = mk_cpu () in
  Cpu.set cpu2 2 1L;
  let _ =
    run cpu2
      [ H.Bcond { cond = H.Beq; ra = 2; target = 2 };
        H.Lda { ra = 1; rb = 31; disp = 99 };
        H.Monitor H.Prog_halt ]
  in
  Alcotest.(check int64) "branch not taken" 99L (Cpu.get cpu2 1)

let test_cpu_br_sets_link () =
  let cpu, _ = mk_cpu () in
  let _ = run cpu [ H.Br { ra = 5; target = 1 }; H.Monitor H.Prog_halt ] in
  Alcotest.(check int64) "link register" 1L (Cpu.get cpu 5)

let test_cpu_jmp_indirect () =
  let cpu, _ = mk_cpu () in
  Cpu.set cpu 7 2L;
  let _ =
    run cpu
      [ H.Jmp { ra = 5; rb = 7 };
        H.Lda { ra = 1; rb = 31; disp = 99 };
        H.Monitor H.Prog_halt ]
  in
  Alcotest.(check int64) "skipped poison" 0L (Cpu.get cpu 1);
  Alcotest.(check int64) "link" 1L (Cpu.get cpu 5)

let test_cpu_monitor_exits () =
  let cpu, _ = mk_cpu () in
  (match run cpu [ H.Monitor (H.Next_guest 0x42) ] with
  | Cpu.Exit_next_guest g, at ->
    Alcotest.(check int) "guest target" 0x42 g;
    Alcotest.(check int) "exit pc" 0 at
  | _ -> Alcotest.fail "expected next_guest");
  let cpu, _ = mk_cpu () in
  Cpu.set cpu 13 0x77L;
  match run cpu [ H.Monitor (H.Dyn_guest 13) ] with
  | Cpu.Exit_dyn_guest g, _ -> Alcotest.(check int) "dyn target" 0x77 g
  | _ -> Alcotest.fail "expected dyn_guest"

let test_cpu_alignment_trap_emulate () =
  let cpu, mem = mk_cpu () in
  Memory.write mem ~addr:1001 ~size:4 0xCAFEBABEL;
  Cpu.set cpu 2 1001L;
  let trapped = ref 0 in
  Cpu.set_handler cpu (fun ~pc:_ ~addr insn ->
      incr trapped;
      Alcotest.(check int) "fault address" 1001 addr;
      (match insn with H.Ldl _ -> () | _ -> Alcotest.fail "expected the ldl");
      Cpu.Emulate);
  let _ = run cpu [ H.Ldl { ra = 1; rb = 2; disp = 0 }; H.Monitor H.Prog_halt ] in
  Alcotest.(check int) "one trap" 1 !trapped;
  Alcotest.(check int64) "emulated value" (Mda_util.Bits.sign_extend ~size:4 0xCAFEBABEL)
    (Cpu.get cpu 1);
  Alcotest.(check int) "trap counter" 1 cpu.Cpu.align_traps

let test_cpu_alignment_trap_retry () =
  (* Retry: handler rewrites the slot, CPU re-executes it. *)
  let cpu, mem = mk_cpu () in
  Memory.write mem ~addr:1001 ~size:4 0x1234L;
  Cpu.set cpu 2 1001L;
  let code = [| H.Ldl { ra = 1; rb = 2; disp = 0 }; H.Monitor H.Prog_halt |] in
  Cpu.set_handler cpu (fun ~pc ~addr:_ _ ->
      code.(pc) <- H.Ldbu { ra = 1; rb = 2; disp = 0 };
      Cpu.Retry);
  let _ = run_array cpu code ~fuel:100 in
  Alcotest.(check int64) "patched slot re-executed" 0x34L (Cpu.get cpu 1)

(* The handler grows the code cache past its capacity before patching:
   the CPU must pick up the new array and length, or it would re-run the
   stale trapping slot and fetch the out-of-line sequence out of range. *)
let test_cpu_retry_after_growth () =
  let module Cc = Mda_bt.Code_cache in
  let cpu, mem = mk_cpu () in
  Memory.write mem ~addr:1001 ~size:4 0x1234L;
  Cpu.set cpu 2 1001L;
  let cc = Cc.create ~initial:16 () in
  let entry = Cc.emit cc [ H.Ldl { ra = 1; rb = 2; disp = 0 }; H.Monitor H.Prog_halt ] in
  let before = Cc.code cc in
  Cpu.set_handler cpu (fun ~pc ~addr:_ _ ->
      let seq =
        List.init 20 (fun _ -> H.Nop)
        @ [ H.Lda { ra = 1; rb = 31; disp = 77 }; H.Br { ra = 31; target = pc + 1 } ]
      in
      let at = Cc.emit cc seq in
      Cc.patch cc pc (H.Br { ra = 31; target = at });
      Cpu.Retry);
  let exit, at =
    Cpu.run cpu ~src:cc ~code_of:Cc.code ~len_of:Cc.length ~entry ~fuel:1000
  in
  Alcotest.(check bool) "the store moved" false (before == Cc.code cc);
  Alcotest.(check bool) "halted" true (exit = Cpu.Exit_halt);
  Alcotest.(check int) "at the original monitor" (entry + 1) at;
  Alcotest.(check int) "one trap" 1 cpu.Cpu.align_traps;
  Alcotest.(check int64) "the out-of-line sequence ran" 77L (Cpu.get cpu 1)

(* A branch out of the code store is a [Fatal] naming the pc, on either
   side of it. *)
let test_cpu_wild_jump_fatal () =
  List.iter
    (fun target ->
      let cpu, _ = mk_cpu () in
      Cpu.set cpu 7 (Int64.of_int target);
      Alcotest.check_raises (Printf.sprintf "jmp %d" target)
        (Cpu.Fatal (Printf.sprintf "code-cache fetch out of range: %d" target))
        (fun () ->
          ignore (run cpu [ H.Jmp { ra = 31; rb = 7 }; H.Monitor H.Prog_halt ])))
    [ 2; 1000; -1 ]

let test_cpu_unhandled_trap_fatal () =
  let cpu, _ = mk_cpu () in
  Cpu.set cpu 2 1001L;
  try
    ignore (run cpu [ H.Stq { ra = 1; rb = 2; disp = 0 }; H.Monitor H.Prog_halt ]);
    Alcotest.fail "expected Fatal"
  with Cpu.Fatal _ -> ()

let test_cpu_alignment_matrix () =
  (* each restricted op traps exactly on misaligned addresses *)
  let cases =
    [ ((fun () -> H.Ldwu { ra = 1; rb = 2; disp = 0 }), 2);
      ((fun () -> H.Ldl { ra = 1; rb = 2; disp = 0 }), 4);
      ((fun () -> H.Ldq { ra = 1; rb = 2; disp = 0 }), 8);
      ((fun () -> H.Stw { ra = 1; rb = 2; disp = 0 }), 2);
      ((fun () -> H.Stl { ra = 1; rb = 2; disp = 0 }), 4);
      ((fun () -> H.Stq { ra = 1; rb = 2; disp = 0 }), 8) ]
  in
  List.iter
    (fun (mk, align) ->
      for off = 0 to align - 1 do
        let cpu, _ = mk_cpu () in
        Cpu.set_handler cpu (fun ~pc:_ ~addr:_ _ -> Cpu.Emulate);
        Cpu.set cpu 2 (Int64.of_int (4096 + off));
        let _ = run cpu [ mk (); H.Monitor H.Prog_halt ] in
        let expected = if off = 0 then 0 else 1 in
        Alcotest.(check int)
          (Printf.sprintf "align %d offset %d" align off)
          expected cpu.Cpu.align_traps
      done)
    cases

let test_cpu_ldq_u_never_traps () =
  for off = 0 to 7 do
    let cpu, mem = mk_cpu () in
    Memory.write mem ~addr:4096 ~size:8 0x8877665544332211L;
    Cpu.set cpu 2 (Int64.of_int (4096 + off));
    let _ = run cpu [ H.Ldq_u { ra = 1; rb = 2; disp = 0 }; H.Monitor H.Prog_halt ] in
    Alcotest.(check int) "no trap" 0 cpu.Cpu.align_traps;
    Alcotest.(check int64) "enclosing quad" 0x8877665544332211L (Cpu.get cpu 1)
  done

let test_cpu_out_of_fuel () =
  let cpu, _ = mk_cpu () in
  try
    ignore (run cpu [ H.Br { ra = 31; target = 0 } ]);
    Alcotest.fail "expected Out_of_fuel"
  with Cpu.Out_of_fuel -> ()

let test_cpu_cycle_accounting () =
  let cpu, _ = mk_cpu () in
  let c0 = cpu.Cpu.cycles in
  let _ = run cpu [ H.Nop; H.Nop; H.Monitor H.Prog_halt ] in
  Alcotest.(check bool) "cycles advanced" true (cpu.Cpu.cycles > c0);
  Alcotest.(check int) "3 insns retired" 3 cpu.Cpu.insns

(* --- register file --------------------------------------------------------- *)

(* One instruction of the differential property: memory forms carry the
   base-register value that puts their effective address in memory. *)
type rf_step = { insn : H.insn; base : int64 }

let gen_rf_steps =
  let open QCheck.Gen in
  (* r31 a quarter of the time, as a source and as a destination *)
  let reg = frequency [ (1, return 31); (3, int_range 0 30) ] in
  let operand =
    oneof [ map (fun r -> H.Rb r) reg; map (fun v -> H.Lit v) (int_range 0 255) ]
  in
  let alu =
    oneof
      [ (let* op = oneofl (Array.to_list H.all_opers) in
         let* ra = reg and* rb = operand and* rc = reg in
         return (H.Opr { op; ra; rb; rc }));
        (let* op = oneofl [ H.Ext; H.Ins; H.Msk ] in
         let* width = oneofl [ 2; 4; 8 ] and* high = bool in
         let* ra = reg and* rb = operand and* rc = reg in
         return (H.Bytem { op; width; high; ra; rb; rc })) ]
  in
  let mem =
    let* ra = reg and* rb = reg and* base = int_range 0 2048 and* disp = int_range 0 2040 in
    let* insn =
      oneofl
        [ H.Ldl { ra; rb; disp }; H.Ldq_u { ra; rb; disp }; H.Stq_u { ra; rb; disp } ]
    in
    return { insn; base = Int64.of_int base }
  in
  let step = frequency [ (3, map (fun insn -> { insn; base = 0L }) alu); (1, mem) ] in
  let value = oneof [ int64; map Int64.of_int (int_range (-300) 300) ] in
  triple (list_size (int_range 1 12) step) (array_size (return 31) value) int

let print_rf_steps (steps, _, seed) =
  Printf.sprintf "seed %d: %s" seed
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "%s [base %Ld]" (Mda_host.Pretty.insn_to_string s.insn) s.base)
          steps))

(* Every operate, byte-manipulation and register-file load/store agrees
   with the pure semantics on the same inputs — destination and all
   other registers — and r31 reads zero after each instruction. *)
let prop_rf_differential =
  QCheck.Test.make ~name:"register file agrees with the pure semantics" ~count:1000
    (QCheck.make gen_rf_steps ~print:print_rf_steps)
    (fun (steps, init, seed) ->
      let cpu, mem = mk_cpu () in
      let rng = Random.State.make [| seed |] in
      for q = 0 to 511 do
        Memory.write mem ~addr:(8 * q) ~size:8 (Random.State.int64 rng Int64.max_int)
      done;
      Array.iteri (Cpu.set cpu) init;
      Cpu.set_handler cpu (fun ~pc:_ ~addr:_ _ -> Cpu.Emulate);
      let value = function H.Rb r -> Cpu.get cpu r | H.Lit v -> Int64.of_int v in
      List.for_all
        (fun { insn; base } ->
          let ea rb disp = Int64.to_int (Cpu.get cpu rb) + disp in
          (match insn with
          | H.Ldl { rb; _ } | H.Ldq_u { rb; _ } | H.Stq_u { rb; _ } -> Cpu.set cpu rb base
          | _ -> ());
          let pre = Array.init 32 (Cpu.get cpu) in
          let expect = Array.copy pre in
          let write r v = if r <> H.r31 then expect.(r) <- v in
          let stored = ref None in
          (match insn with
          | H.Opr { op; ra; rb; rc } ->
            write rc (Mda_host.Semantics.oper op pre.(ra) (value rb))
          | H.Bytem { op; width; high; ra; rb; rc } ->
            write rc (Mda_host.Semantics.bytemanip op ~width ~high pre.(ra) (value rb))
          | H.Ldl { ra; rb; disp } ->
            write ra
              (Mda_util.Bits.sign_extend ~size:4
                 (Memory.read mem ~addr:(ea rb disp) ~size:4))
          | H.Ldq_u { ra; rb; disp } ->
            write ra (Memory.read mem ~addr:(ea rb disp land lnot 7) ~size:8)
          | H.Stq_u { ra; rb; disp } -> stored := Some (ea rb disp land lnot 7, pre.(ra))
          | _ -> assert false);
          ignore (run cpu [ insn; H.Monitor H.Prog_halt ]);
          Array.init 32 (Cpu.get cpu) = expect
          && Cpu.get cpu 31 = 0L
          &&
          match !stored with
          | Some (addr, v) -> Memory.read mem ~addr ~size:8 = v
          | None -> true)
        steps)

(* 20,000 iterations of an 8-instruction loop mixing every hot form
   allocate (almost) nothing: a boxed int64 per instruction would show
   as 2+ words each. The second pass misaligns the loop's [Ldl], so every
   iteration also takes a trap the handler answers with [Emulate]: the
   trap path must not allocate either (a boxed fault address or a
   closure per trap would show as several words each). *)
let test_cpu_allocation_free () =
  let iters = 20_000 in
  let code =
    [| H.Ldq_u { ra = 3; rb = 2; disp = 0 };
       H.Bytem { op = H.Ext; width = 4; high = false; ra = 3; rb = H.Rb 2; rc = 4 };
       H.Opr { op = H.Addl; ra = 4; rb = H.Lit 3; rc = 4 };
       H.Stq_u { ra = 4; rb = 2; disp = 8 };
       H.Ldl { ra = 5; rb = 2; disp = 3 };
       H.Lda { ra = 1; rb = 1; disp = -1 };
       H.Bcond { cond = H.Beq; ra = 1; target = 8 };
       H.Br { ra = 31; target = 0 };
       H.Monitor H.Prog_halt |]
  in
  List.iter
    (fun (base, traps) ->
      let cpu, _ = mk_cpu () in
      Cpu.set cpu 1 (Int64.of_int iters);
      Cpu.set cpu 2 base;
      Cpu.set_handler cpu (fun ~pc:_ ~addr:_ _ -> Cpu.Emulate);
      let before = Gc.minor_words () in
      ignore (run_array cpu code ~fuel:max_int);
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "ran the loop" true (cpu.Cpu.insns >= 100_000);
      Alcotest.(check int) "traps" traps cpu.Cpu.align_traps;
      (* under a word per instruction, and under a word per trap *)
      let bound = if traps = 0 then cpu.Cpu.insns else traps in
      if words >= float_of_int bound then
        Alcotest.failf "%.0f minor words for %d host instructions and %d traps" words
          cpu.Cpu.insns traps)
    [ (4097L, 0); (4098L, iters) ]

let suite =
  [ ( "machine.memory",
      [ Alcotest.test_case "endianness" `Quick test_memory_endianness;
        Alcotest.test_case "rw roundtrip" `Quick test_memory_rw_roundtrip;
        Alcotest.test_case "misaligned rw" `Quick test_memory_misaligned_rw;
        Alcotest.test_case "bounds" `Quick test_memory_bounds;
        Alcotest.test_case "load image" `Quick test_memory_load_image;
        Alcotest.test_case "page-straddling accesses" `Quick test_memory_page_straddle;
        Alcotest.test_case "digest is canonical" `Quick test_memory_digest ] );
    ( "machine.cache",
      [ Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "stats & invalidate" `Quick test_cache_stats_and_invalidate;
        Alcotest.test_case "validation" `Quick test_cache_validation ] );
    ( "machine.hierarchy",
      [ Alcotest.test_case "miss costs" `Quick test_hierarchy_costs;
        Alcotest.test_case "straddle lookups" `Quick test_hierarchy_straddle ] );
    ( "machine.cpu",
      [ Alcotest.test_case "r31 hardwired" `Quick test_cpu_r31_hardwired;
        Alcotest.test_case "lda/ldah" `Quick test_cpu_lda_ldah;
        Alcotest.test_case "branches" `Quick test_cpu_branches;
        Alcotest.test_case "br sets link" `Quick test_cpu_br_sets_link;
        Alcotest.test_case "jmp indirect" `Quick test_cpu_jmp_indirect;
        Alcotest.test_case "monitor exits" `Quick test_cpu_monitor_exits;
        Alcotest.test_case "trap: emulate" `Quick test_cpu_alignment_trap_emulate;
        Alcotest.test_case "trap: retry (patching)" `Quick test_cpu_alignment_trap_retry;
        Alcotest.test_case "trap: retry after the store grows" `Quick
          test_cpu_retry_after_growth;
        Alcotest.test_case "wild jump is fatal" `Quick test_cpu_wild_jump_fatal;
        Alcotest.test_case "trap: unhandled is fatal" `Quick test_cpu_unhandled_trap_fatal;
        Alcotest.test_case "alignment matrix" `Quick test_cpu_alignment_matrix;
        Alcotest.test_case "ldq_u never traps" `Quick test_cpu_ldq_u_never_traps;
        Alcotest.test_case "out of fuel" `Quick test_cpu_out_of_fuel;
        Alcotest.test_case "cycle accounting" `Quick test_cpu_cycle_accounting;
        Alcotest.test_case "allocation-free" `Quick test_cpu_allocation_free;
        QCheck_alcotest.to_alcotest prop_rf_differential ] ) ]
