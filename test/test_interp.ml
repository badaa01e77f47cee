(* Per-instruction semantics tests for the guest interpreter: every
   x86lite instruction against hand-computed results, including the
   32-bit value convention (sign-extended registers), flag behaviour,
   and effective-address arithmetic. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module H = Mda_host.Isa
module Machine = Mda_machine
module Bt = Mda_bt

let data = 0x2000

(* Run a straight-line instruction list (plus Halt) through the
   interpreter on a small machine; returns (cpu, mem). *)
let run ?(setup = fun _ _ -> ()) ?(on_mem = fun _ -> ()) insns =
  let image, _ = G.Encode.encode_program (Array.of_list (insns @ [ GI.Halt ])) in
  let mem = Machine.Memory.create ~size_bytes:65536 in
  Machine.Memory.load_image mem ~addr:0x1000 image;
  let cost = Machine.Cost_model.default in
  let hier = Machine.Hierarchy.create cost in
  let cpu = Machine.Cpu.create ~mem ~hier ~cost () in
  Machine.Cpu.set cpu (GI.reg_index GI.ESP) 0xF000L;
  setup cpu mem;
  (match Bt.Block.discover mem ~pc:0x1000 with
  | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e
  | Ok block -> (
    match
      Bt.Interp.exec_block cpu (Interpreted { profile = false }) block ~on_mem
    with
    | Bt.Interp.Halted -> ()
    | Bt.Interp.Fallthrough _ -> Alcotest.fail "expected halt"));
  (cpu, mem)

let reg cpu r = Machine.Cpu.get cpu (GI.reg_index r)

let check64 = Alcotest.(check int64)

(* --- moves -------------------------------------------------------------- *)

let test_mov_imm () =
  let cpu, _ = run [ GI.Mov_imm { dst = GI.EAX; imm = -7l } ] in
  check64 "negative imm sign-extended" (-7L) (reg cpu GI.EAX)

let test_mov_reg () =
  let cpu, _ =
    run [ GI.Mov_imm { dst = GI.EBX; imm = 42l }; GI.Mov_reg { dst = GI.ECX; src = GI.EBX } ]
  in
  check64 "mov" 42L (reg cpu GI.ECX)

(* --- loads: widths, sign, convention ------------------------------------ *)

let setup_pattern _ mem =
  Machine.Memory.write mem ~addr:data ~size:8 0xF1F2F3F48586878AL

let load dst size signed disp =
  GI.Load { dst; src = GI.addr_abs (data + disp); size; signed }

let test_load_widths () =
  let cpu, _ =
    run ~setup:setup_pattern
      [ load GI.EAX GI.S1 false 0;
        load GI.EBX GI.S1 true 0;
        load GI.ECX GI.S2 false 0;
        load GI.EDX GI.S2 true 0;
        load GI.ESI GI.S4 false 0;
        load GI.EDI GI.S8 false 0 ]
  in
  check64 "byte zext" 0x8AL (reg cpu GI.EAX);
  check64 "byte sext" (Int64.of_int (0x8A - 0x100)) (reg cpu GI.EBX);
  check64 "word zext" 0x878AL (reg cpu GI.ECX);
  check64 "word sext" (Int64.of_int (0x878A - 0x10000)) (reg cpu GI.EDX);
  (* 32-bit loads always sign-extend (longword convention) *)
  check64 "long convention" (Mda_util.Bits.sign_extend ~size:4 0x8586878AL) (reg cpu GI.ESI);
  check64 "quad raw" 0xF1F2F3F48586878AL (reg cpu GI.EDI)

let test_load_misaligned_value () =
  (* a misaligned load reads exactly the bytes at the odd address *)
  let cpu, _ = run ~setup:setup_pattern [ load GI.EAX GI.S2 false 1 ] in
  check64 "bytes at odd address" 0x8687L (Int64.logand (reg cpu GI.EAX) 0xFFFFL);
  let cpu2, _ = run ~setup:setup_pattern [ load GI.EAX GI.S4 false 3 ] in
  check64 "4 bytes at +3" (Mda_util.Bits.sign_extend ~size:4 0xF2F3F485L) (reg cpu2 GI.EAX)

(* --- stores -------------------------------------------------------------- *)

let test_store_truncates () =
  let cpu, mem =
    run
      [ GI.Mov_imm { dst = GI.EAX; imm = -2l };
        GI.Store { src = GI.EAX; dst = GI.addr_abs data; size = GI.S2 } ]
  in
  ignore cpu;
  check64 "low 2 bytes stored" 0xFFFEL (Machine.Memory.read mem ~addr:data ~size:2);
  check64 "next byte untouched" 0L (Machine.Memory.read mem ~addr:(data + 2) ~size:1)

(* --- effective addresses -------------------------------------------------- *)

let test_addressing_modes () =
  let setup cpu mem =
    Machine.Cpu.set cpu (GI.reg_index GI.EBX) (Int64.of_int data);
    Machine.Cpu.set cpu (GI.reg_index GI.ECX) 4L;
    Machine.Memory.write mem ~addr:(data + 8) ~size:4 111L;
    Machine.Memory.write mem ~addr:(data + 4 + (4 * 2)) ~size:4 222L
  in
  let cpu, _ =
    run ~setup
      [ GI.Load
          { dst = GI.EAX; src = GI.addr_base ~disp:8 GI.EBX; size = GI.S4; signed = false };
        GI.Load
          { dst = GI.EDX;
            src = GI.addr_indexed ~disp:4 ~base:GI.EBX ~index:GI.ECX ~scale:2 ();
            size = GI.S4;
            signed = false } ]
  in
  check64 "base+disp" 111L (reg cpu GI.EAX);
  check64 "base+index*scale+disp" 222L (reg cpu GI.EDX)

let test_lea () =
  let setup cpu _ = Machine.Cpu.set cpu (GI.reg_index GI.EBX) 100L in
  let cpu, _ =
    run ~setup
      [ GI.Lea
          { dst = GI.EAX;
            src = GI.addr_indexed ~disp:7 ~base:GI.EBX ~index:GI.EBX ~scale:4 () } ]
  in
  check64 "lea computes without memory" (Int64.of_int ((100 * 5) + 7)) (reg cpu GI.EAX)

(* --- ALU ------------------------------------------------------------------ *)

let binop_case op a b expect =
  let cpu, _ =
    run
      [ GI.Mov_imm { dst = GI.EAX; imm = Int32.of_int a };
        GI.Binop { op; dst = GI.EAX; src = GI.Imm (Int32.of_int b) } ]
  in
  check64
    (Printf.sprintf "%s %d %d" (GI.binop_name op) a b)
    expect (reg cpu GI.EAX)

let test_binops () =
  binop_case GI.Add 3 4 7L;
  binop_case GI.Add 0x7FFFFFFF 1 (-2147483648L) (* 32-bit overflow wraps *);
  binop_case GI.Sub 3 5 (-2L);
  binop_case GI.And 0xFF 0x0F 0x0FL;
  binop_case GI.Or 0xF0 0x0F 0xFFL;
  binop_case GI.Xor 0xFF 0x0F 0xF0L;
  binop_case GI.Imul 1000 (-3) (-3000L);
  binop_case GI.Shl 1 31 (-2147483648L);
  binop_case GI.Shl 1 33 2L (* count masked to 5 bits *);
  binop_case GI.Shr (-1) 28 0xFL;
  binop_case GI.Sar (-16) 2 (-4L)

(* --- flags and conditions --------------------------------------------------- *)

let cond_case ~a ~b cond expect =
  (* run cmp then materialize the condition via the flag registers *)
  let cpu, _ =
    run
      [ GI.Mov_imm { dst = GI.EAX; imm = Int32.of_int a };
        GI.Cmp { a = GI.EAX; b = GI.Imm (Int32.of_int b) } ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d %s %d" a (GI.cond_name cond) b)
    expect
    (Bt.Interp.cond_holds cpu cond)

let test_conditions () =
  cond_case ~a:3 ~b:3 GI.Eq true;
  cond_case ~a:3 ~b:4 GI.Eq false;
  cond_case ~a:3 ~b:4 GI.Ne true;
  cond_case ~a:(-1) ~b:0 GI.Lt true;
  cond_case ~a:(-1) ~b:0 GI.Ult false (* unsigned: 0xFFFFFFFF > 0 *);
  cond_case ~a:5 ~b:5 GI.Le true;
  cond_case ~a:5 ~b:5 GI.Ge true;
  cond_case ~a:6 ~b:5 GI.Gt true;
  cond_case ~a:4 ~b:5 GI.Ule true

let test_test_insn () =
  let cpu, _ =
    run
      [ GI.Mov_imm { dst = GI.EAX; imm = 0x0Fl };
        GI.Test { a = GI.EAX; b = GI.Imm 0xF0l } ]
  in
  Alcotest.(check bool) "test sets ZF on zero AND" true (Bt.Interp.cond_holds cpu GI.Eq)

(* --- stack --------------------------------------------------------------- *)

let test_push_pop () =
  let cpu, mem =
    run
      [ GI.Mov_imm { dst = GI.EAX; imm = 77l };
        GI.Push GI.EAX;
        GI.Mov_imm { dst = GI.EAX; imm = 0l };
        GI.Pop GI.EBX ]
  in
  check64 "popped value" 77L (reg cpu GI.EBX);
  check64 "esp restored" 0xF000L (reg cpu GI.ESP);
  check64 "stack slot written" 77L (Machine.Memory.read mem ~addr:(0xF000 - 4) ~size:4)

(* --- rmw ------------------------------------------------------------------ *)

let test_rmw_semantics () =
  let setup _ mem = Machine.Memory.write mem ~addr:data ~size:4 10L in
  let _, mem =
    run ~setup
      [ GI.Mov_imm { dst = GI.EDX; imm = 5l };
        GI.Rmw { op = GI.Add; dst = GI.addr_abs data; src = GI.Reg GI.EDX; size = GI.S4 } ]
  in
  check64 "rmw add" 15L (Machine.Memory.read mem ~addr:data ~size:4)

let test_rmw_sets_flags () =
  let setup _ mem = Machine.Memory.write mem ~addr:data ~size:4 5L in
  let cpu, _ =
    run ~setup
      [ GI.Rmw { op = GI.Sub; dst = GI.addr_abs data; src = GI.Imm 5l; size = GI.S4 } ]
  in
  Alcotest.(check bool) "zero result sets ZF" true (Bt.Interp.cond_holds cpu GI.Eq)

(* --- memory events ---------------------------------------------------------- *)

let test_mem_events () =
  let image, _ =
    G.Encode.encode_program
      [| GI.Load { dst = GI.EAX; src = GI.addr_abs (data + 1); size = GI.S4; signed = false };
         GI.Store { src = GI.EAX; dst = GI.addr_abs data; size = GI.S8 };
         GI.Halt |]
  in
  let mem = Machine.Memory.create ~size_bytes:65536 in
  Machine.Memory.load_image mem ~addr:0x1000 image;
  let cost = Machine.Cost_model.default in
  let cpu = Machine.Cpu.create ~mem ~hier:(Machine.Hierarchy.create cost) ~cost () in
  let events = ref [] in
  (match Bt.Block.discover mem ~pc:0x1000 with
  | Ok block ->
    ignore
      (Bt.Interp.exec_block cpu (Interpreted { profile = false }) block
         ~on_mem:(fun ev -> events := ev :: !events))
  | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e);
  match List.rev !events with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "load event" true (e1.Bt.Interp.kind = `Load);
    Alcotest.(check bool) "load misaligned" false e1.Bt.Interp.aligned;
    Alcotest.(check int) "load ea" (data + 1) e1.Bt.Interp.ea;
    Alcotest.(check int) "load size" 4 e1.Bt.Interp.size;
    Alcotest.(check bool) "store event" true (e2.Bt.Interp.kind = `Store);
    Alcotest.(check bool) "store aligned" true e2.Bt.Interp.aligned
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

(* --- pins for the paths the unboxed loop takes -------------------------- *)

let flag cpu i = Machine.Cpu.get cpu i

let test_rmw_narrow_and_quad () =
  (* S1/S2/S8 read-modify-writes operate on the raw loaded value, without
     the longword sign extension an S4 one applies; the store truncates
     the ALU result to the access width *)
  let setup _ mem =
    Machine.Memory.write mem ~addr:data ~size:8 0x77665544332211FFL;
    Machine.Memory.write mem ~addr:(data + 16) ~size:8 0x7766554433FFFFFFL;
    Machine.Memory.write mem ~addr:(data + 32) ~size:8 0x0000000100000005L;
    Machine.Memory.write mem ~addr:(data + 48) ~size:8 0xF0F0F0F0F0F0F0F0L
  in
  let rmw op disp size src = GI.Rmw { op; dst = GI.addr_abs (data + disp); src; size } in
  (* the encoding has no 8-byte RMW, so the block is built directly *)
  let insns =
    [| rmw GI.Shr 0 GI.S1 (GI.Imm 1l);
       rmw GI.Shr 16 GI.S2 (GI.Imm 4l);
       rmw GI.Or 48 GI.S8 (GI.Imm 0x0Fl);
       rmw GI.Add 32 GI.S8 (GI.Imm 1l);
       GI.Halt |]
  in
  let addrs = Array.init 5 (fun i -> 0x1000 + i) in
  let block = { Bt.Block.start = 0x1000; insns; addrs; next = 0x1005 } in
  let mem = Machine.Memory.create ~size_bytes:65536 in
  let cost = Machine.Cost_model.default in
  let cpu = Machine.Cpu.create ~mem ~hier:(Machine.Hierarchy.create cost) ~cost () in
  setup cpu mem;
  Alcotest.(check bool) "halts" true
    (Bt.Interp.exec_block cpu (Interpreted { profile = false }) block ~on_mem:ignore
    = Bt.Interp.Halted);
  let rd addr size = Machine.Memory.read mem ~addr ~size in
  check64 "S1: 0xFF >> 1, zero-extended" 0x776655443322117FL (rd data 8);
  check64 "S2: 0xFFFF >> 4, zero-extended" 0x7766554433FF0FFFL (rd (data + 16) 8);
  check64 "S8 Or keeps all 64 bits" 0xF0F0F0F0F0F0F0FFL (rd (data + 48) 8);
  (* Add follows the longword convention: the upper half is dropped *)
  check64 "S8 Add is a 32-bit add" 6L (rd (data + 32) 8);
  check64 "flags a = last result" 6L (flag cpu Mda_host.Isa.cmp_a);
  check64 "flags b = 0" 0L (flag cpu Mda_host.Isa.cmp_b);
  check64 "flags diff" 6L (flag cpu Mda_host.Isa.cmp_diff);
  let evs = ref [] in
  ignore (run ~setup ~on_mem:(fun ev -> evs := ev :: !evs) [ rmw GI.Add 1 GI.S2 (GI.Imm 1l) ]);
  let evs = List.rev !evs in
  Alcotest.(check (list (pair int bool)))
    "one load, one store, same misaligned address"
    [ (data + 1, false); (data + 1, false) ]
    (List.map (fun (e : Bt.Interp.mem_event) -> (e.ea, e.aligned)) evs);
  Alcotest.(check bool) "load then store" true
    (List.map (fun (e : Bt.Interp.mem_event) -> e.kind) evs = [ `Load; `Store ])

let test_load_negative_narrow () =
  let setup _ mem = Machine.Memory.write mem ~addr:data ~size:8 0x00000000_00FF80FFL in
  let cpu, _ =
    run ~setup
      [ GI.Mov_imm { dst = GI.EAX; imm = 0x12345678l };
        GI.Mov_imm { dst = GI.ECX; imm = -1l };
        load GI.EAX GI.S1 false 0;
        load GI.EBX GI.S1 true 0;
        load GI.ECX GI.S2 false 0;
        load GI.EDX GI.S2 true 0;
        load GI.ESI GI.S1 true 1;
        load GI.EDI GI.S2 true 1 ]
  in
  check64 "S1 unsigned 0xFF" 0xFFL (reg cpu GI.EAX);
  check64 "S1 signed 0xFF" (-1L) (reg cpu GI.EBX);
  check64 "S2 unsigned 0x80FF" 0x80FFL (reg cpu GI.ECX);
  check64 "S2 signed 0x80FF" (Int64.of_int (0x80FF - 0x10000)) (reg cpu GI.EDX);
  check64 "S1 signed 0x80" (-128L) (reg cpu GI.ESI);
  check64 "S2 signed 0xFF80 (misaligned)" (-128L) (reg cpu GI.EDI)

let test_push_pop_esp () =
  (* Pop ESP writes the popped value first and the incremented stack
     pointer second, so the increment wins *)
  let push_pop =
    [ GI.Mov_imm { dst = GI.EAX; imm = 0x5555l }; GI.Push GI.EAX; GI.Pop GI.ESP ]
  in
  let cpu, _ = run push_pop in
  check64 "pop esp: esp = old sp + 4" 0xF000L (reg cpu GI.ESP);
  (* Push ESP stores the already decremented stack pointer *)
  let cpu, mem = run (push_pop @ [ GI.Push GI.ESP ]) in
  check64 "push esp: esp" 0xEFFCL (reg cpu GI.ESP);
  check64 "push esp stores the new sp" 0xEFFCL (Machine.Memory.read mem ~addr:0xEFFC ~size:4)

let exec_one cpu mem pc =
  match Bt.Block.discover mem ~pc with
  | Error e -> Alcotest.failf "discover: %a" Bt.Block.pp_error e
  | Ok block ->
    Bt.Interp.exec_block cpu (Interpreted { profile = false }) block ~on_mem:(fun _ -> ())

let test_call_ret () =
  let image, offsets = G.Encode.encode_program [| GI.Nop; GI.Call 0x1100; GI.Halt |] in
  let ret_image, _ = G.Encode.encode_program [| GI.Ret |] in
  let mem = Machine.Memory.create ~size_bytes:65536 in
  Machine.Memory.load_image mem ~addr:0x1000 image;
  Machine.Memory.load_image mem ~addr:0x1100 ret_image;
  let cost = Machine.Cost_model.default in
  let cpu = Machine.Cpu.create ~mem ~hier:(Machine.Hierarchy.create cost) ~cost () in
  Machine.Cpu.set cpu (GI.reg_index GI.ESP) 0xF000L;
  let ret_addr = 0x1000 + offsets.(2) in
  (match exec_one cpu mem 0x1000 with
  | Bt.Interp.Fallthrough t -> Alcotest.(check int) "call target" 0x1100 t
  | Bt.Interp.Halted -> Alcotest.fail "call halted");
  check64 "call pushed" 0xEFFCL (reg cpu GI.ESP);
  check64 "return address on the stack" (Int64.of_int ret_addr)
    (Machine.Memory.read mem ~addr:0xEFFC ~size:4);
  (match exec_one cpu mem 0x1100 with
  | Bt.Interp.Fallthrough t -> Alcotest.(check int) "ret returns after the call" ret_addr t
  | Bt.Interp.Halted -> Alcotest.fail "ret halted");
  check64 "ret popped" 0xF000L (reg cpu GI.ESP);
  (* the return target is the popped longword, zero-extended: a slot with
     the top bit set is a large positive address, not a negative one *)
  Machine.Memory.write mem ~addr:0xF000 ~size:8 0xAAAAAAAA_FFFFFFF0L;
  (match exec_one cpu mem 0x1100 with
  | Bt.Interp.Fallthrough t -> Alcotest.(check int) "masked 32-bit target" 0xFFFFFFF0 t
  | Bt.Interp.Halted -> Alcotest.fail "ret halted");
  check64 "ret popped again" 0xF004L (reg cpu GI.ESP)

let test_raw_quad_base () =
  (* after an S8 load a register holds a raw 64-bit value; effective
     addresses and Lea still wrap mod 2^32 *)
  let setup _ mem =
    Machine.Memory.write mem ~addr:data ~size:8 (Int64.of_int (0x1_0000_0000 + data));
    Machine.Memory.write mem ~addr:(data + 8) ~size:8 0x7FFFFFFF_FFFFFFF0L;
    Machine.Memory.write mem ~addr:(data + 24) ~size:4 0xBEEFL
  in
  let cpu, _ =
    run ~setup
      [ load GI.EBX GI.S8 false 0;
        load GI.EDX GI.S8 false 8;
        GI.Load
          { dst = GI.EAX; src = GI.addr_base ~disp:24 GI.EBX; size = GI.S4; signed = false };
        GI.Lea { dst = GI.ESI; src = GI.addr_base ~disp:0x20 GI.EDX };
        GI.Lea
          { dst = GI.EDI;
            src = GI.addr_indexed ~disp:0x10 ~base:GI.EDX ~index:GI.EDX ~scale:8 () };
        GI.Lea { dst = GI.ECX; src = GI.addr_base ~disp:0x7FFFFFFF GI.EBX } ]
  in
  check64 "load through a wide base" 0xBEEFL (reg cpu GI.EAX);
  check64 "lea wraps" 0x10L (reg cpu GI.ESI);
  check64 "lea base+index*8 wraps and sign-extends" (-128L) (reg cpu GI.EDI);
  check64 "lea result is sign-extended"
    (Mda_util.Bits.sign_extend ~size:4 (Int64.of_int (data + 0x7FFFFFFF)))
    (reg cpu GI.ECX)

let test_load_out_of_bounds () =
  (* a faulting load raises before the destination is written, after it
     has been observed and counted *)
  let events = ref 0 in
  let cpu = ref None in
  (match
     run
       ~setup:(fun c _ -> cpu := Some c)
       ~on_mem:(fun _ -> incr events)
       [ GI.Mov_imm { dst = GI.EAX; imm = 99l }; load GI.EAX GI.S4 false (65534 - data) ]
   with
  | _ -> Alcotest.fail "expected Out_of_bounds"
  | exception Machine.Memory.Out_of_bounds { addr; size; _ } ->
    Alcotest.(check (pair int int)) "faulting access" (65534, 4) (addr, size));
  let cpu = Option.get !cpu in
  check64 "destination unchanged" 99L (reg cpu GI.EAX);
  Alcotest.(check int) "observed once" 1 !events;
  Alcotest.(check int) "counted once" 1 cpu.Machine.Cpu.mem_ops

(* The interpreter allocates nothing per guest instruction: a loop over
   every access width, Rmw, Push/Pop, Call/Ret and Jcc, interpreted with
   full profiling. *)
let test_allocation_free () =
  let iters = 5_000 in
  let build asm =
    let open G.Asm in
    let f = fresh_label asm and main = fresh_label asm in
    jmp asm main;
    bind asm f;
    rmw asm ~op:GI.Add ~dst:(GI.addr_base ~disp:3 GI.EBX) ~src:(GI.Imm 1l) ~size:GI.S4 ();
    ret asm;
    bind asm main;
    movi asm GI.EBX Bt.Layout.data_base;
    Test_runtime.counted_loop asm ~iters (fun asm ->
        load asm ~signed:true ~dst:GI.EAX ~src:(GI.addr_base ~disp:1 GI.EBX) ~size:GI.S1 ();
        load asm ~dst:GI.EDX ~src:(GI.addr_base ~disp:1 GI.EBX) ~size:GI.S2 ();
        load asm ~dst:GI.ESI
          ~src:(GI.addr_indexed ~disp:2 ~base:GI.EBX ~index:GI.ECX ~scale:1 ())
          ~size:GI.S4 ();
        load asm ~dst:GI.EDI ~src:(GI.addr_base ~disp:5 GI.EBX) ~size:GI.S8 ();
        store asm ~src:GI.EAX ~dst:(GI.addr_base ~disp:64 GI.EBX) ~size:GI.S1 ();
        store asm ~src:GI.EDX ~dst:(GI.addr_base ~disp:65 GI.EBX) ~size:GI.S2 ();
        store asm ~src:GI.ESI ~dst:(GI.addr_base ~disp:66 GI.EBX) ~size:GI.S4 ();
        store asm ~src:GI.EDI ~dst:(GI.addr_base ~disp:71 GI.EBX) ~size:GI.S8 ();
        rmw asm ~op:GI.Xor ~dst:(GI.addr_base ~disp:9 GI.EBX) ~src:(GI.Reg GI.EAX)
          ~size:GI.S2 ();
        rmw asm ~op:GI.Or ~dst:(GI.addr_base ~disp:12 GI.EBX) ~src:(GI.Reg GI.EDX)
          ~size:GI.S1 ();
        insn asm (GI.Push GI.EDX);
        insn asm (GI.Pop GI.EAX);
        lea asm GI.EAX (GI.addr_base ~disp:4 GI.EAX);
        call asm f);
    halt asm
  in
  let program, mem = Test_runtime.load_program build in
  let before = Gc.minor_words () in
  let stats, _ = Bt.Runtime.interpret_program ~mem ~entry:program.G.Asm.base () in
  let words = Gc.minor_words () -. before in
  let insns = Int64.to_float stats.Bt.Run_stats.guest_insns in
  Alcotest.(check bool) "ran the loop" true (insns >= float_of_int (iters * 15));
  if words >= insns then
    Alcotest.failf "%.0f minor words for %.0f guest instructions" words insns

let suite =
  [ ( "interp",
      [ Alcotest.test_case "mov imm" `Quick test_mov_imm;
        Alcotest.test_case "mov reg" `Quick test_mov_reg;
        Alcotest.test_case "load widths and sign" `Quick test_load_widths;
        Alcotest.test_case "misaligned load values" `Quick test_load_misaligned_value;
        Alcotest.test_case "store truncates" `Quick test_store_truncates;
        Alcotest.test_case "addressing modes" `Quick test_addressing_modes;
        Alcotest.test_case "lea" `Quick test_lea;
        Alcotest.test_case "binops" `Quick test_binops;
        Alcotest.test_case "conditions" `Quick test_conditions;
        Alcotest.test_case "test instruction" `Quick test_test_insn;
        Alcotest.test_case "push/pop" `Quick test_push_pop;
        Alcotest.test_case "rmw semantics" `Quick test_rmw_semantics;
        Alcotest.test_case "rmw flags" `Quick test_rmw_sets_flags;
        Alcotest.test_case "memory events" `Quick test_mem_events;
        Alcotest.test_case "rmw S1/S2/S8" `Quick test_rmw_narrow_and_quad;
        Alcotest.test_case "narrow loads of negative bytes" `Quick test_load_negative_narrow;
        Alcotest.test_case "push/pop esp" `Quick test_push_pop_esp;
        Alcotest.test_case "call/ret round trip" `Quick test_call_ret;
        Alcotest.test_case "raw 64-bit base wraps" `Quick test_raw_quad_base;
        Alcotest.test_case "load out of bounds" `Quick test_load_out_of_bounds;
        Alcotest.test_case "allocation-free" `Quick test_allocation_free ] ) ]
