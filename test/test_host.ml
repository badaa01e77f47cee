(* Tests for the alphalite host ISA: operate-instruction semantics,
   byte-manipulation instructions against a byte-level reference model,
   MDA code sequences (exhaustive over widths × offsets), and the
   encode/decode round trip. *)

module H = Mda_host.Isa
module Sem = Mda_host.Semantics
module Seq = Mda_host.Mda_seq
module Enc = Mda_host.Encode
module Machine = Mda_machine

let check64 = Alcotest.(check int64)

(* --- operate semantics -------------------------------------------------- *)

let test_oper_arith () =
  check64 "addq" 5L (Sem.oper H.Addq 2L 3L);
  check64 "addq wraps" Int64.min_int (Sem.oper H.Addq Int64.max_int 1L);
  check64 "subq" (-1L) (Sem.oper H.Subq 2L 3L);
  check64 "mulq" 6L (Sem.oper H.Mulq 2L 3L);
  check64 "addl sign-extends" (-2147483648L) (Sem.oper H.Addl 0x7FFFFFFFL 1L);
  check64 "subl" (-1L) (Sem.oper H.Subl 0L 1L);
  check64 "addl as sext32 idiom" (-1L) (Sem.oper H.Addl 0L 0xFFFFFFFFL)

let test_oper_logic () =
  check64 "and" 0x0F0L (Sem.oper H.And 0xFF0L 0x0FFL);
  check64 "bis" 0xFFFL (Sem.oper H.Bis 0xF0FL 0x0F0L);
  check64 "xor" 0xFF0L (Sem.oper H.Xor 0xF0FL 0x0FFL)

let test_oper_shifts () =
  check64 "sll" 16L (Sem.oper H.Sll 1L 4L);
  check64 "sll mod 64" 2L (Sem.oper H.Sll 1L 65L);
  check64 "srl" 0x7FFFFFFFFFFFFFFFL (Sem.oper H.Srl (-1L) 1L);
  check64 "sra keeps sign" (-1L) (Sem.oper H.Sra (-1L) 1L)

let test_oper_compares () =
  check64 "cmpeq true" 1L (Sem.oper H.Cmpeq 5L 5L);
  check64 "cmpeq false" 0L (Sem.oper H.Cmpeq 5L 6L);
  check64 "cmplt signed" 1L (Sem.oper H.Cmplt (-1L) 0L);
  check64 "cmpult unsigned" 0L (Sem.oper H.Cmpult (-1L) 0L);
  check64 "cmple equal" 1L (Sem.oper H.Cmple 3L 3L);
  check64 "cmpule" 1L (Sem.oper H.Cmpule 0L (-1L))

let test_oper_sext () =
  check64 "sextb" (-1L) (Sem.oper H.Sextb 0L 0xFFL);
  check64 "sextw" (-2L) (Sem.oper H.Sextw 0L 0xFFFEL);
  check64 "sextb positive" 0x7FL (Sem.oper H.Sextb 0L 0x7FL)

(* --- byte manipulation vs reference ------------------------------------ *)

(* Reference model: bytes of a quadword as an int array. *)
let to_bytes v = Array.init 8 (fun i -> Mda_util.Bits.byte_of v i)

let of_bytes a =
  Array.to_list a |> List.fold_left (fun (acc, i) _ -> (acc, i)) (0L, 0) |> ignore;
  Mda_util.Bits.of_bytes (Array.to_list a)

let test_ext_low_reference () =
  (* EXTxL: take bytes o.. of the quad, zero-extended into width bytes *)
  List.iter
    (fun width ->
      for o = 0 to 7 do
        let v = 0x8877665544332211L in
        let got = Sem.ext_low ~width v (Int64.of_int o) in
        let src = to_bytes v in
        let expect = Array.make 8 0 in
        for k = 0 to width - 1 do
          if o + k < 8 then expect.(k) <- src.(o + k)
        done;
        check64 (Printf.sprintf "extl w%d o%d" width o) (of_bytes expect) got
      done)
    [ 2; 4; 8 ]

let test_ext_high_reference () =
  (* EXTxH: the continuation bytes from the next quad *)
  List.iter
    (fun width ->
      for o = 0 to 7 do
        let v = 0xF8F7F6F5F4F3F2F1L in
        let got = Sem.ext_high ~width v (Int64.of_int o) in
        let src = to_bytes v in
        let expect = Array.make 8 0 in
        if o > 0 then
          for k = 0 to width - 1 do
            (* byte k of the value comes from src.(o+k-8) when o+k >= 8 *)
            let idx = o + k - 8 in
            if idx >= 0 && idx < 8 && k < 8 then expect.(k) <- src.(idx)
          done;
        check64 (Printf.sprintf "exth w%d o%d" width o) (of_bytes expect) got
      done)
    [ 2; 4; 8 ]

let test_ins_msk_compose () =
  (* For any value/offset: inserting a field into masked quads and OR-ing
     reconstructs memory exactly as two stq_u would write it. *)
  let rng = Mda_util.Rng.create 77L in
  for _ = 1 to 200 do
    let width = [| 2; 4; 8 |].(Mda_util.Rng.int rng 3) in
    let o = Mda_util.Rng.int rng 8 in
    let v = Mda_util.Rng.next_u64 rng in
    let lo_quad = Mda_util.Rng.next_u64 rng in
    let hi_quad = Mda_util.Rng.next_u64 rng in
    let addr = Int64.of_int o in
    let field = Int64.logand v (Mda_util.Bits.mask_of_size width) in
    (* hardware composition *)
    let new_lo =
      Int64.logor (Sem.msk_low ~width lo_quad addr) (Sem.ins_low ~width v addr)
    in
    let new_hi =
      Int64.logor (Sem.msk_high ~width hi_quad addr) (Sem.ins_high ~width v addr)
    in
    (* reference: 16-byte buffer *)
    let buf = Bytes.create 16 in
    Bytes.set_int64_le buf 0 lo_quad;
    Bytes.set_int64_le buf 8 hi_quad;
    (match width with
    | 2 -> Bytes.set_uint16_le buf o (Int64.to_int field land 0xFFFF)
    | 4 -> Bytes.set_int32_le buf o (Int64.to_int32 field)
    | _ -> Bytes.set_int64_le buf o field);
    check64 "low quad" (Bytes.get_int64_le buf 0) new_lo;
    check64 "high quad" (Bytes.get_int64_le buf 8) new_hi
  done

let test_ext_compose_loads () =
  (* extl | exth over the two quads reconstructs the unaligned value *)
  let rng = Mda_util.Rng.create 99L in
  for _ = 1 to 200 do
    let width = [| 2; 4; 8 |].(Mda_util.Rng.int rng 3) in
    let o = Mda_util.Rng.int rng 8 in
    let lo_quad = Mda_util.Rng.next_u64 rng in
    let hi_quad = Mda_util.Rng.next_u64 rng in
    let addr = Int64.of_int o in
    let buf = Bytes.create 16 in
    Bytes.set_int64_le buf 0 lo_quad;
    Bytes.set_int64_le buf 8 hi_quad;
    let expect =
      match width with
      | 2 -> Int64.of_int (Bytes.get_uint16_le buf o)
      | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le buf o)) 0xFFFFFFFFL
      | _ -> Bytes.get_int64_le buf o
    in
    let got =
      Int64.logor (Sem.ext_low ~width lo_quad addr) (Sem.ext_high ~width hi_quad addr)
    in
    check64 (Printf.sprintf "compose w%d o%d" width o) expect got
  done

(* --- MDA code sequences on a real machine ------------------------------- *)

let mk_cpu () =
  let cost = Machine.Cost_model.default in
  let mem = Machine.Memory.create ~size_bytes:65536 in
  let hier = Machine.Hierarchy.create cost in
  (Machine.Cpu.create ~mem ~hier ~cost (), mem)

let run_seq cpu insns =
  let code = Array.of_list (insns @ [ H.Monitor H.Prog_halt ]) in
  match Machine.Cpu.run cpu ~src:code ~code_of:Fun.id ~len_of:Array.length ~entry:0 ~fuel:1000 with
  | Machine.Cpu.Exit_halt, _ -> ()
  | _ -> Alcotest.fail "sequence did not halt"

let test_mda_load_exhaustive () =
  (* For every width and every offset within a quad, the MDA load sequence
     must read exactly the bytes a guest MDA would, without trapping. *)
  List.iter
    (fun width ->
      List.iter
        (fun signed ->
          for offset = 0 to 7 do
            let cpu, mem = mk_cpu () in
            (* pattern memory *)
            for a = 0 to 63 do
              Machine.Memory.write_u8 mem (1024 + a) (a * 7 land 0xFF)
            done;
            let base = 2 in
            Machine.Cpu.set cpu base (Int64.of_int (1024 + offset));
            let dst = 1 in
            let seq = Seq.load ~dst ~base ~disp:0 ~width ~signed in
            run_seq cpu seq;
            let raw = Machine.Memory.read mem ~addr:(1024 + offset) ~size:width in
            let expect =
              if signed then Mda_util.Bits.sign_extend ~size:width raw else raw
            in
            check64
              (Printf.sprintf "mda load w%d o%d signed=%b" width offset signed)
              expect (Machine.Cpu.get cpu dst);
            Alcotest.(check int) "no traps" 0 cpu.Machine.Cpu.align_traps
          done)
        [ false; true ])
    [ 2; 4; 8 ]

let test_mda_store_exhaustive () =
  List.iter
    (fun width ->
      for offset = 0 to 7 do
        let cpu, mem = mk_cpu () in
        for a = 0 to 63 do
          Machine.Memory.write_u8 mem (2048 + a) 0xAA
        done;
        let base = 2 and src = 1 in
        let value = 0x1122334455667788L in
        Machine.Cpu.set cpu base (Int64.of_int (2048 + offset));
        Machine.Cpu.set cpu src value;
        run_seq cpu (Seq.store ~src ~base ~disp:0 ~width);
        (* stored bytes are exactly the low [width] bytes of the value *)
        check64
          (Printf.sprintf "mda store w%d o%d" width offset)
          (Mda_util.Bits.truncate ~size:width value)
          (Machine.Memory.read mem ~addr:(2048 + offset) ~size:width);
        (* neighbours untouched *)
        if offset > 0 then
          Alcotest.(check int) "byte before" 0xAA
            (Machine.Memory.read_u8 mem (2048 + offset - 1));
        Alcotest.(check int) "byte after" 0xAA
          (Machine.Memory.read_u8 mem (2048 + offset + width));
        Alcotest.(check int) "no traps" 0 cpu.Machine.Cpu.align_traps
      done)
    [ 2; 4; 8 ]

let test_mda_load_dst_equals_base () =
  (* the delicate case the paper's Figure-2 trick covers: dst = base *)
  let cpu, mem = mk_cpu () in
  Machine.Memory.write mem ~addr:1027 ~size:4 0xDEADBEEFL;
  Machine.Cpu.set cpu 3 1027L;
  run_seq cpu (Seq.load ~dst:3 ~base:3 ~disp:0 ~width:4 ~signed:false);
  check64 "dst=base load" 0xDEADBEEFL (Machine.Cpu.get cpu 3)

let test_mda_seq_lengths () =
  (* Section IV-D argues from sequence lengths; pin them down. *)
  Alcotest.(check int) "4-byte signed load = paper's 7 insns" 7
    (List.length (Seq.load ~dst:1 ~base:2 ~disp:2 ~width:4 ~signed:true));
  Alcotest.(check int) "4-byte unsigned load" 6
    (List.length (Seq.load ~dst:1 ~base:2 ~disp:2 ~width:4 ~signed:false));
  Alcotest.(check int) "store" 11
    (List.length (Seq.store ~src:1 ~base:2 ~disp:2 ~width:4))

let test_mda_rejects_width_1 () =
  Alcotest.check_raises "width 1"
    (Invalid_argument "Mda_seq: width 1 needs no MDA sequence") (fun () ->
      ignore (Seq.load ~dst:1 ~base:2 ~disp:0 ~width:1 ~signed:false))

(* --- encode / decode ----------------------------------------------------- *)

let sample_insns =
  [ H.Ldbu { ra = 1; rb = 2; disp = -4 };
    H.Ldwu { ra = 3; rb = 4; disp = 100 };
    H.Ldl { ra = 5; rb = 6; disp = -32768 };
    H.Ldq { ra = 7; rb = 8; disp = 32767 };
    H.Ldq_u { ra = 21; rb = 2; disp = 5 };
    H.Stb { ra = 1; rb = 2; disp = 0 };
    H.Stw { ra = 1; rb = 2; disp = 2 };
    H.Stl { ra = 1; rb = 2; disp = 4 };
    H.Stq { ra = 1; rb = 2; disp = 8 };
    H.Stq_u { ra = 22; rb = 23; disp = 3 };
    H.Lda { ra = 1; rb = 31; disp = 42 };
    H.Ldah { ra = 1; rb = 31; disp = 16 };
    H.Opr { op = H.Addl; ra = 1; rb = H.Rb 2; rc = 3 };
    H.Opr { op = H.Cmpult; ra = 1; rb = H.Lit 255; rc = 3 };
    H.Opr { op = H.Sextw; ra = 31; rb = H.Rb 5; rc = 5 };
    H.Bytem { op = H.Ext; width = 4; high = false; ra = 1; rb = H.Rb 22; rc = 1 };
    H.Bytem { op = H.Ins; width = 8; high = true; ra = 1; rb = H.Lit 3; rc = 24 };
    H.Bytem { op = H.Msk; width = 2; high = true; ra = 21; rb = H.Rb 22; rc = 21 };
    H.Br { ra = 31; target = 17 };
    H.Bcond { cond = H.Bne; ra = 13; target = 0 };
    H.Jmp { ra = 31; rb = 13 };
    H.Monitor (H.Next_guest 0x4242);
    H.Monitor (H.Dyn_guest 13);
    H.Monitor H.Prog_halt;
    H.Nop ]

let test_encode_roundtrip_samples () =
  List.iteri
    (fun i insn ->
      let pc = 10 in
      let word = Enc.encode ~pc insn in
      match Enc.decode ~pc word with
      | Ok insn' ->
        Alcotest.(check bool)
          (Printf.sprintf "sample %d: %s" i (Mda_host.Pretty.insn_to_string insn))
          true (insn = insn')
      | Error e -> Alcotest.failf "decode failed: %a" Enc.pp_error e)
    sample_insns

let test_encode_rejects_bad_fields () =
  let bad () = ignore (Enc.encode ~pc:0 (H.Lda { ra = 1; rb = 2; disp = 40000 })) in
  (try
     bad ();
     Alcotest.fail "expected Unencodable"
   with Enc.Unencodable _ -> ());
  try
    ignore (Enc.encode ~pc:0 (H.Opr { op = H.Addq; ra = 1; rb = H.Lit 256; rc = 2 }));
    Alcotest.fail "expected Unencodable (lit)"
  with Enc.Unencodable _ -> ()

let test_decode_rejects_bad_opcode () =
  match Enc.decode ~pc:0 (0x3E lsl 26) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected decode error"

(* random host instruction generator for the round-trip property *)
let gen_host_insn =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let disp = int_range (-32768) 32767 in
  let operand = oneof [ map (fun r -> H.Rb r) reg; map (fun v -> H.Lit v) (int_range 0 255) ] in
  let mem f = map3 (fun ra rb d -> f ra rb d) reg reg disp in
  oneof
    [ mem (fun ra rb disp -> H.Ldbu { ra; rb; disp });
      mem (fun ra rb disp -> H.Ldwu { ra; rb; disp });
      mem (fun ra rb disp -> H.Ldl { ra; rb; disp });
      mem (fun ra rb disp -> H.Ldq { ra; rb; disp });
      mem (fun ra rb disp -> H.Ldq_u { ra; rb; disp });
      mem (fun ra rb disp -> H.Stb { ra; rb; disp });
      mem (fun ra rb disp -> H.Stw { ra; rb; disp });
      mem (fun ra rb disp -> H.Stl { ra; rb; disp });
      mem (fun ra rb disp -> H.Stq { ra; rb; disp });
      mem (fun ra rb disp -> H.Stq_u { ra; rb; disp });
      mem (fun ra rb disp -> H.Lda { ra; rb; disp });
      mem (fun ra rb disp -> H.Ldah { ra; rb; disp });
      (let* op = oneofl (Array.to_list H.all_opers) in
       let* ra = reg and* rb = operand and* rc = reg in
       return (H.Opr { op; ra; rb; rc }));
      (let* op = oneofl [ H.Ext; H.Ins; H.Msk ] in
       let* width = oneofl [ 2; 4; 8 ] in
       let* high = bool and* ra = reg and* rb = operand and* rc = reg in
       return (H.Bytem { op; width; high; ra; rb; rc }));
      (let* ra = reg and* target = int_range 0 100000 in
       return (H.Br { ra; target }));
      (let* cond = oneofl (Array.to_list H.all_bconds) in
       let* ra = reg and* target = int_range 0 100000 in
       return (H.Bcond { cond; ra; target }));
      (let* ra = reg and* rb = reg in
       return (H.Jmp { ra; rb }));
      map (fun g -> H.Monitor (H.Next_guest g)) (int_range 0 0xFFFFFF);
      map (fun r -> H.Monitor (H.Dyn_guest r)) reg;
      return (H.Monitor H.Prog_halt);
      return H.Nop ]

let prop_host_roundtrip =
  QCheck.Test.make ~name:"host encode/decode round trip" ~count:2000
    (QCheck.make gen_host_insn ~print:Mda_host.Pretty.insn_to_string)
    (fun insn ->
      let pc = 50000 in
      match Enc.decode ~pc (Enc.encode ~pc insn) with
      | Ok insn' -> insn = insn'
      | Error _ -> false)

let prop_ext_compose =
  QCheck.Test.make ~name:"extl|exth reconstructs unaligned load" ~count:1000
    QCheck.(triple (oneofl [ 2; 4; 8 ]) (int_bound 7) (pair int64 int64))
    (fun (width, o, (lo, hi)) ->
      let buf = Bytes.create 16 in
      Bytes.set_int64_le buf 0 lo;
      Bytes.set_int64_le buf 8 hi;
      let expect =
        match width with
        | 2 -> Int64.of_int (Bytes.get_uint16_le buf o)
        | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le buf o)) 0xFFFFFFFFL
        | _ -> Bytes.get_int64_le buf o
      in
      let addr = Int64.of_int o in
      Int64.logor (Sem.ext_low ~width lo addr) (Sem.ext_high ~width hi addr) = expect)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_host_roundtrip; prop_ext_compose ]

let suite =
  [ ( "host.semantics",
      [ Alcotest.test_case "arith" `Quick test_oper_arith;
        Alcotest.test_case "logic" `Quick test_oper_logic;
        Alcotest.test_case "shifts" `Quick test_oper_shifts;
        Alcotest.test_case "compares" `Quick test_oper_compares;
        Alcotest.test_case "sign extension" `Quick test_oper_sext;
        Alcotest.test_case "ext low vs reference" `Quick test_ext_low_reference;
        Alcotest.test_case "ext high vs reference" `Quick test_ext_high_reference;
        Alcotest.test_case "ins/msk compose stores" `Quick test_ins_msk_compose;
        Alcotest.test_case "ext compose loads" `Quick test_ext_compose_loads ] );
    ( "host.mda_seq",
      [ Alcotest.test_case "load exhaustive" `Quick test_mda_load_exhaustive;
        Alcotest.test_case "store exhaustive" `Quick test_mda_store_exhaustive;
        Alcotest.test_case "dst = base" `Quick test_mda_load_dst_equals_base;
        Alcotest.test_case "sequence lengths" `Quick test_mda_seq_lengths;
        Alcotest.test_case "rejects width 1" `Quick test_mda_rejects_width_1 ] );
    ( "host.encode",
      [ Alcotest.test_case "sample round trips" `Quick test_encode_roundtrip_samples;
        Alcotest.test_case "rejects bad fields" `Quick test_encode_rejects_bad_fields;
        Alcotest.test_case "rejects bad opcode" `Quick test_decode_rejects_bad_opcode ] );
    ("host.properties", qcheck_cases) ]
