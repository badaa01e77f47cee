(* Tests for the x86lite guest ISA: encoder/decoder round trips (unit and
   property), the two-pass assembler, and ISA metadata helpers. *)

module G = Mda_guest.Isa
module Enc = Mda_guest.Encode
module Dec = Mda_guest.Decode
module Asm = Mda_guest.Asm

(* --- sample round trips -------------------------------------------------- *)

let sample_insns =
  [ G.Load { dst = G.EAX; src = G.addr_base ~disp:2 G.EBX; size = G.S4; signed = true };
    G.Load { dst = G.ECX; src = G.addr_abs 0x100000; size = G.S1; signed = false };
    G.Load
      { dst = G.EDX;
        src = G.addr_indexed ~disp:(-8) ~base:G.ESI ~index:G.EDI ~scale:8 ();
        size = G.S8;
        signed = false };
    G.Store { src = G.EBP; dst = G.addr_base ~disp:1024 G.ESP; size = G.S2 };
    G.Mov_imm { dst = G.EAX; imm = -1l };
    G.Mov_imm { dst = G.EDI; imm = Int32.max_int };
    G.Mov_reg { dst = G.EAX; src = G.EBX };
    G.Binop { op = G.Add; dst = G.EAX; src = G.Imm 3l };
    G.Binop { op = G.Imul; dst = G.ECX; src = G.Reg G.EDX };
    G.Binop { op = G.Sar; dst = G.EBX; src = G.Imm 31l };
    G.Cmp { a = G.EAX; b = G.Imm 0l };
    G.Cmp { a = G.ESI; b = G.Reg G.EDI };
    G.Test { a = G.ECX; b = G.Imm 7l };
    G.Lea { dst = G.EBX; src = G.addr_indexed ~base:G.EBX ~index:G.ECX ~scale:2 () };
    G.Rmw { op = G.Add; dst = G.addr_base ~disp:2 G.EBX; src = G.Reg G.EAX; size = G.S4 };
    G.Rmw { op = G.Xor; dst = G.addr_abs 0x3000; src = G.Imm 77l; size = G.S2 };
    G.Push G.EBP;
    G.Pop G.EBP;
    G.Jmp 0x1234;
    G.Jcc { cond = G.Ult; target = 0xFFFF };
    G.Call 0x4000;
    G.Ret;
    G.Nop;
    G.Halt ]

let test_sample_roundtrips () =
  List.iteri
    (fun i insn ->
      let bytes = Enc.encode insn in
      match Dec.decode bytes ~pos:0 with
      | Ok (insn', next) ->
        Alcotest.(check bool)
          (Printf.sprintf "sample %d: %s" i (Mda_guest.Pretty.insn_to_string insn))
          true (insn = insn');
        Alcotest.(check int) "consumed whole encoding" (Bytes.length bytes) next
      | Error e -> Alcotest.failf "decode failed: %a" Dec.pp_error e)
    sample_insns

let test_decode_errors () =
  (* bad opcode *)
  (match Dec.decode (Bytes.of_string "\xFF") ~pos:0 with
  | Error { reason; _ } ->
    Alcotest.(check bool) "bad opcode reported" true
      (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected error");
  (* truncated instruction *)
  (match Dec.decode (Bytes.of_string "\x03\x00") ~pos:0 with
  | Error { reason; _ } -> Alcotest.(check string) "truncated" "truncated instruction" reason
  | Ok _ -> Alcotest.fail "expected truncation error");
  (* bad register *)
  (match Dec.decode (Bytes.of_string "\x04\x09\x00") ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected bad register error");
  (* bad size code: an error value, not an exception *)
  match Dec.decode (Bytes.of_string "\x02\x00\x13\x00\x00\x00\x00\x00") ~pos:0 with
  | Error { reason; _ } -> Alcotest.(check string) "bad size" "bad size code 19" reason
  | Ok _ -> Alcotest.fail "expected bad size code error"

let test_decode_all () =
  let prog = [ G.Nop; G.Mov_imm { dst = G.EAX; imm = 5l }; G.Halt ] in
  let image, offsets = Enc.encode_program (Array.of_list prog) in
  match Dec.decode_all image with
  | Ok decoded ->
    Alcotest.(check int) "count" 3 (List.length decoded);
    List.iteri
      (fun i (off, insn) ->
        Alcotest.(check int) "offset" offsets.(i) off;
        Alcotest.(check bool) "insn" true (insn = List.nth prog i))
      decoded
  | Error e -> Alcotest.failf "decode_all failed: %a" Dec.pp_error e

(* --- assembler ------------------------------------------------------------ *)

let test_asm_label_resolution () =
  let asm = Asm.create () in
  let target = Asm.fresh_label asm in
  Asm.jmp asm target; (* forward reference *)
  Asm.insn asm G.Nop;
  Asm.bind asm target;
  Asm.halt asm;
  let p = Asm.assemble ~base:0x1000 asm in
  (* the jmp must point at the halt *)
  (match p.Asm.insns.(0) with
  | G.Jmp t -> Alcotest.(check int) "forward label" p.Asm.offsets.(2) t
  | _ -> Alcotest.fail "expected jmp");
  Alcotest.(check int) "addr_of_label" p.Asm.offsets.(2) (Asm.addr_of_label p target)

let test_asm_backward_label () =
  let asm = Asm.create () in
  let top = Asm.def_label asm in
  Asm.insn asm G.Nop;
  Asm.jcc asm G.Ne top;
  Asm.halt asm;
  let p = Asm.assemble asm in
  match p.Asm.insns.(1) with
  | G.Jcc { target; _ } -> Alcotest.(check int) "backward label" p.Asm.base target
  | _ -> Alcotest.fail "expected jcc"

let test_asm_rejects_unbound_label () =
  let asm = Asm.create () in
  let l = Asm.fresh_label asm in
  Asm.jmp asm l;
  Alcotest.check_raises "unbound label"
    (Invalid_argument "Asm.assemble: unbound label 0") (fun () ->
      ignore (Asm.assemble asm))

let test_asm_rejects_double_bind () =
  let asm = Asm.create () in
  let l = Asm.fresh_label asm in
  Asm.bind asm l;
  Asm.insn asm G.Nop;
  Asm.bind asm l;
  Asm.halt asm;
  Alcotest.check_raises "double bind"
    (Invalid_argument "Asm.assemble: label 0 bound twice") (fun () ->
      ignore (Asm.assemble asm))

let test_asm_rejects_raw_branch () =
  let asm = Asm.create () in
  Alcotest.check_raises "raw branch"
    (Invalid_argument "Asm.insn: use jmp/jcc/call with labels for branches") (fun () ->
      Asm.insn asm (G.Jmp 0))

let test_asm_offsets_consistent () =
  (* offsets must equal the byte positions of the encoded image *)
  let asm = Asm.create () in
  Asm.movi asm G.EAX 1;
  Asm.load asm ~dst:G.EBX ~src:(G.addr_abs 0x2000) ~size:G.S4 ();
  Asm.halt asm;
  let p = Asm.assemble ~base:0 asm in
  Array.iteri
    (fun i off ->
      match Dec.decode p.Asm.image ~pos:off with
      | Ok (insn, _) -> Alcotest.(check bool) "insn at offset" true (insn = p.Asm.insns.(i))
      | Error e -> Alcotest.failf "decode at offset: %a" Dec.pp_error e)
    p.Asm.offsets

(* --- ISA helpers ----------------------------------------------------------- *)

let test_reg_indexing () =
  Array.iteri
    (fun i r ->
      Alcotest.(check int) "index" i (G.reg_index r);
      Alcotest.(check bool) "roundtrip" true (G.reg_of_index i = r))
    G.all_regs;
  Alcotest.check_raises "bad index" (Invalid_argument "Isa.reg_of_index: 8") (fun () ->
      ignore (G.reg_of_index 8))

let test_size_helpers () =
  Array.iter
    (fun s ->
      Alcotest.(check bool) "size roundtrip" true
        (G.size_of_bytes (G.size_bytes s) = s))
    G.all_sizes

let test_cond_helpers () =
  Array.iter
    (fun c ->
      Alcotest.(check bool) "cond roundtrip" true (G.cond_of_index (G.cond_index c) = c))
    G.all_conds

let test_memory_access_metadata () =
  Alcotest.(check bool) "load" true
    (G.memory_access (G.Load { dst = G.EAX; src = G.addr_abs 0; size = G.S2; signed = false })
    = Some (`Load, G.S2));
  Alcotest.(check bool) "push is a 4-byte store" true
    (G.memory_access (G.Push G.EAX) = Some (`Store, G.S4));
  Alcotest.(check bool) "ret is a 4-byte load" true
    (G.memory_access G.Ret = Some (`Load, G.S4));
  Alcotest.(check bool) "lea touches nothing" true (G.memory_access (G.Lea { dst = G.EAX; src = G.addr_abs 0 }) = None)

let test_block_end_metadata () =
  Alcotest.(check bool) "jmp ends" true (G.is_block_end (G.Jmp 0));
  Alcotest.(check bool) "halt ends" true (G.is_block_end G.Halt);
  Alcotest.(check bool) "ret ends" true (G.is_block_end G.Ret);
  Alcotest.(check bool) "nop continues" false (G.is_block_end G.Nop);
  Alcotest.(check (list int)) "jcc targets" [ 7 ]
    (G.static_targets (G.Jcc { cond = G.Eq; target = 7 }))

let test_addr_indexed_validation () =
  Alcotest.check_raises "scale 3" (Invalid_argument "Isa.addr_indexed: scale 3")
    (fun () -> ignore (G.addr_indexed ~base:G.EAX ~index:G.EBX ~scale:3 ()))

(* --- property: random instruction round trip ------------------------------ *)

let prop_guest_roundtrip =
  QCheck.Test.make ~name:"guest encode/decode round trip" ~count:2000
    (QCheck.make Test_util.gen_guest_insn ~print:Mda_guest.Pretty.insn_to_string)
    (fun insn ->
      let bytes = Enc.encode insn in
      match Dec.decode bytes ~pos:0 with
      | Ok (insn', next) -> insn = insn' && next = Bytes.length bytes
      | Error _ -> false)

let prop_program_roundtrip =
  QCheck.Test.make ~name:"guest program encode/decode_all round trip" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (make Test_util.gen_guest_insn))
    (fun prog ->
      let image, _ = Enc.encode_program (Array.of_list prog) in
      match Dec.decode_all image with
      | Ok decoded -> List.map snd decoded = prog
      | Error _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_guest_roundtrip; prop_program_roundtrip ]

let suite =
  [ ( "guest.encode",
      [ Alcotest.test_case "sample round trips" `Quick test_sample_roundtrips;
        Alcotest.test_case "decode errors" `Quick test_decode_errors;
        Alcotest.test_case "decode_all" `Quick test_decode_all ] );
    ( "guest.asm",
      [ Alcotest.test_case "forward labels" `Quick test_asm_label_resolution;
        Alcotest.test_case "backward labels" `Quick test_asm_backward_label;
        Alcotest.test_case "rejects unbound label" `Quick test_asm_rejects_unbound_label;
        Alcotest.test_case "rejects double bind" `Quick test_asm_rejects_double_bind;
        Alcotest.test_case "rejects raw branch" `Quick test_asm_rejects_raw_branch;
        Alcotest.test_case "offsets match encoding" `Quick test_asm_offsets_consistent ] );
    ( "guest.isa",
      [ Alcotest.test_case "register indexing" `Quick test_reg_indexing;
        Alcotest.test_case "size helpers" `Quick test_size_helpers;
        Alcotest.test_case "cond helpers" `Quick test_cond_helpers;
        Alcotest.test_case "memory access metadata" `Quick test_memory_access_metadata;
        Alcotest.test_case "block-end metadata" `Quick test_block_end_metadata;
        Alcotest.test_case "addr validation" `Quick test_addr_indexed_validation ] );
    ("guest.properties", qcheck_cases) ]
