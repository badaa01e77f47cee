(* Roundtrip tests for the textual assemblers of both ISAs.

   The tentpole invariants, checked exhaustively over every opcode ×
   addressing mode × size × MDA-relevant displacement congruence class:

     parse (pretty i) = Ok i          (the assembler inverts the printer)
     decode (encode i) = i            (the binary codec is lossless)
     pretty is injective              (distinct insns never print alike)

   plus qcheck properties over random instructions and whole programs,
   regression tests for the printer/codec asymmetries the fuzzer
   flushed out (sign-correct hex, 32-bit field guards, canonical
   address flags), parser error positions, and the committed example
   workloads under examples/asm/. *)

module G = Mda_guest.Isa
module GP = Mda_guest.Parse
module GPr = Mda_guest.Pretty
module GE = Mda_guest.Encode
module GD = Mda_guest.Decode
module GA = Mda_guest.Asm
module H = Mda_host.Isa
module HP = Mda_host.Parse
module HPr = Mda_host.Pretty
module HE = Mda_host.Encode
module W = Mda_workloads

(* --- guest enumeration ---------------------------------------------------- *)

(* Displacements by congruence class mod 8 plus the field extremes: the
   classes the paper's alignment analysis distinguishes, and the values
   where a codec or printer would wrap. *)
let guest_disps =
  [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 12; 16; -1; -4; -7; -8; 0x7FFF; -0x8000;
    0x7FFFFFFF; -0x80000000 ]

let guest_imms =
  List.map Int32.of_int [ 0; 1; -1; 7; -8; 0x7FFF; -0x8000 ]
  @ [ Int32.max_int; Int32.min_int ]

let guest_targets = [ 0; 1; 2; 0x1000; 0x12345; 0xFFFFFF; 0xFFFFFFFF ]

(* Every addressing-mode shape at every displacement class. *)
let guest_addrs =
  List.concat_map
    (fun disp ->
      [ G.addr_abs disp;
        G.addr_base ~disp G.EBX;
        G.addr_base ~disp G.ESP;
        G.addr_indexed ~disp ~base:G.ESI ~index:G.EDI ~scale:1 ();
        G.addr_indexed ~disp ~base:G.EBP ~index:G.ECX ~scale:8 ();
        { G.base = None; index = Some (G.EDX, 4); disp } ])
    guest_disps
  @ List.map
      (fun scale -> G.addr_indexed ~base:G.EAX ~index:G.EBX ~scale ())
      [ 1; 2; 4; 8 ]

let guest_enumeration =
  let sizes = Array.to_list G.all_sizes in
  let regs = Array.to_list G.all_regs in
  List.concat
    [ (* loads: size x signedness x addressing mode x register *)
      List.concat_map
        (fun size ->
          List.concat_map
            (fun signed ->
              List.concat_map
                (fun dst ->
                  List.map (fun src -> G.Load { dst; src; size; signed }) guest_addrs)
                [ G.EAX; G.EDI ])
            [ false; true ])
        sizes;
      (* stores *)
      List.concat_map
        (fun size ->
          List.concat_map
            (fun src -> List.map (fun dst -> G.Store { src; dst; size }) guest_addrs)
            [ G.EDX; G.EBP ])
        sizes;
      (* rmw: every legal op x size x operand kind x addressing shape
         over the disp classes *)
      List.concat_map
        (fun op ->
          List.concat_map
            (fun size ->
              List.concat_map
                (fun src ->
                  List.concat_map
                    (fun disp ->
                      [ G.Rmw { op; dst = G.addr_base ~disp G.EBP; src; size };
                        G.Rmw { op; dst = G.addr_abs disp; src; size } ])
                    guest_disps)
                [ G.Reg G.EAX; G.Imm 77l ])
            [ G.S1; G.S2; G.S4 ])
        [ G.Add; G.Sub; G.And; G.Or; G.Xor ];
      (* register ALU: every binop x operand form *)
      List.concat_map
        (fun op ->
          List.concat_map
            (fun dst ->
              List.map (fun src -> G.Binop { op; dst; src })
                (G.Reg G.ESI :: List.map (fun i -> G.Imm i) guest_imms))
            regs)
        (Array.to_list G.all_binops);
      List.concat_map
        (fun dst -> List.map (fun imm -> G.Mov_imm { dst; imm }) guest_imms)
        regs;
      List.concat_map
        (fun dst -> List.map (fun src -> G.Mov_reg { dst; src }) regs)
        regs;
      List.concat_map
        (fun a ->
          List.map (fun b -> G.Cmp { a; b })
            [ G.Reg G.EDI; G.Imm 0l; G.Imm (-1l); G.Imm Int32.min_int ])
        regs;
      List.concat_map
        (fun a -> List.map (fun b -> G.Test { a; b }) [ G.Reg G.ECX; G.Imm 7l ])
        regs;
      List.map (fun src -> G.Lea { dst = G.EBX; src }) guest_addrs;
      List.map (fun r -> G.Push r) regs;
      List.map (fun r -> G.Pop r) regs;
      List.map (fun t -> G.Jmp t) guest_targets;
      List.concat_map
        (fun cond -> List.map (fun target -> G.Jcc { cond; target }) guest_targets)
        (Array.to_list G.all_conds);
      List.map (fun t -> G.Call t) guest_targets;
      [ G.Ret; G.Nop; G.Halt ] ]

let test_guest_parse_pretty_id () =
  List.iter
    (fun insn ->
      let text = GPr.insn_to_string insn in
      match GP.insn text with
      | Ok insn' ->
        if insn <> insn' then
          Alcotest.failf "parse(pretty) not id: %S reparsed as %S" text
            (GPr.insn_to_string insn')
      | Error e -> Alcotest.failf "parse %S failed: %a" text GP.pp_error e)
    guest_enumeration;
  Alcotest.(check bool)
    (Printf.sprintf "%d instructions enumerated" (List.length guest_enumeration))
    true
    (List.length guest_enumeration > 5000)

let test_guest_codec_id () =
  List.iter
    (fun insn ->
      let bytes = GE.encode insn in
      match GD.decode bytes ~pos:0 with
      | Ok (insn', next) ->
        if insn <> insn' || next <> Bytes.length bytes then
          Alcotest.failf "decode(encode) not id: %s" (GPr.insn_to_string insn)
      | Error e ->
        Alcotest.failf "decode %s failed: %a" (GPr.insn_to_string insn) GD.pp_error e)
    guest_enumeration

let test_guest_printer_injective () =
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun insn ->
      let text = GPr.insn_to_string insn in
      match Hashtbl.find_opt seen text with
      | Some other when other <> insn ->
        Alcotest.failf "printer collision: two instructions render as %S" text
      | _ -> Hashtbl.replace seen text insn)
    guest_enumeration

(* --- host enumeration ------------------------------------------------------ *)

(* pc for the encode/decode roundtrip: branch displacements are
   pc-relative, so a fixed pc pins the 21-bit field. *)
let host_pc = 1000

let host_disps = [ -0x8000; -1; 0; 1; 7; 0x7FFF ]

let host_targets = [ 0; 999; 1000; 1001; 2000; 100000 ]

let host_mem_builders =
  [ (fun ra rb disp -> H.Ldbu { ra; rb; disp });
    (fun ra rb disp -> H.Ldwu { ra; rb; disp });
    (fun ra rb disp -> H.Ldl { ra; rb; disp });
    (fun ra rb disp -> H.Ldq { ra; rb; disp });
    (fun ra rb disp -> H.Ldq_u { ra; rb; disp });
    (fun ra rb disp -> H.Stb { ra; rb; disp });
    (fun ra rb disp -> H.Stw { ra; rb; disp });
    (fun ra rb disp -> H.Stl { ra; rb; disp });
    (fun ra rb disp -> H.Stq { ra; rb; disp });
    (fun ra rb disp -> H.Stq_u { ra; rb; disp });
    (fun ra rb disp -> H.Lda { ra; rb; disp });
    (fun ra rb disp -> H.Ldah { ra; rb; disp }) ]

let host_enumeration =
  List.concat
    [ List.concat_map
        (fun mk ->
          List.concat_map
            (fun ra ->
              List.concat_map
                (fun rb -> List.map (fun disp -> mk ra rb disp) host_disps)
                [ 2; 31 ])
            [ 0; 1; 31 ])
        host_mem_builders;
      List.concat_map
        (fun op ->
          List.concat_map
            (fun ra ->
              List.concat_map
                (fun rb ->
                  List.map (fun rc -> H.Opr { op; ra; rb; rc }) [ 3; 31 ])
                [ H.Rb 5; H.Rb 31; H.Lit 0; H.Lit 255 ])
            [ 0; 31 ])
        (Array.to_list H.all_opers);
      List.concat_map
        (fun op ->
          List.concat_map
            (fun width ->
              List.concat_map
                (fun high ->
                  List.map
                    (fun rb -> H.Bytem { op; width; high; ra = 21; rb; rc = 22 })
                    [ H.Rb 4; H.Lit 7 ])
                [ false; true ])
            [ 2; 4; 8 ])
        [ H.Ext; H.Ins; H.Msk ];
      List.concat_map
        (fun ra -> List.map (fun target -> H.Br { ra; target }) host_targets)
        [ 31; 5 ];
      List.concat_map
        (fun cond ->
          List.map (fun target -> H.Bcond { cond; ra = 7; target }) host_targets)
        (Array.to_list H.all_bconds);
      [ H.Jmp { ra = 31; rb = 6 };
        H.Jmp { ra = 1; rb = 30 };
        H.Monitor (H.Next_guest 0);
        H.Monitor (H.Next_guest 0x1000);
        H.Monitor (H.Next_guest 0xFFFFFF);
        H.Monitor (H.Dyn_guest 9);
        H.Monitor H.Prog_halt;
        H.Nop ] ]

let test_host_parse_pretty_id () =
  List.iter
    (fun insn ->
      let text = HPr.insn_to_string insn in
      match HP.insn text with
      | Ok insn' ->
        if insn <> insn' then
          Alcotest.failf "parse(pretty) not id: %S reparsed as %S" text
            (HPr.insn_to_string insn')
      | Error e -> Alcotest.failf "parse %S failed: %a" text HP.pp_error e)
    host_enumeration;
  Alcotest.(check bool)
    (Printf.sprintf "%d instructions enumerated" (List.length host_enumeration))
    true
    (List.length host_enumeration > 500)

let test_host_codec_id () =
  List.iter
    (fun insn ->
      let word = HE.encode ~pc:host_pc insn in
      match HE.decode ~pc:host_pc word with
      | Ok insn' ->
        if insn <> insn' then
          Alcotest.failf "decode(encode) not id at pc %d: %s" host_pc
            (HPr.insn_to_string insn)
      | Error e ->
        Alcotest.failf "decode %s failed: %s" (HPr.insn_to_string insn)
          e.HE.reason)
    host_enumeration

let test_host_printer_injective () =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun insn ->
      let text = HPr.insn_to_string insn in
      match Hashtbl.find_opt seen text with
      | Some other when other <> insn ->
        Alcotest.failf "printer collision: two instructions render as %S" text
      | _ -> Hashtbl.replace seen text insn)
    host_enumeration

(* --- properties ------------------------------------------------------------ *)

let prop_guest_parse_pretty =
  QCheck.Test.make ~name:"guest parse(pretty i) = Ok i" ~count:2000
    (QCheck.make Test_util.gen_guest_insn ~print:GPr.insn_to_string)
    (fun insn -> GP.insn (GPr.insn_to_string insn) = Ok insn)

(* Whole programs: join the pretty lines and reassemble; the parsed
   program must carry the same instruction stream and an identical
   binary image. *)
let prop_guest_program_text =
  QCheck.Test.make ~name:"guest program text reassembles identically" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (make Test_util.gen_guest_insn ~print:GPr.insn_to_string))
    (fun prog ->
      let text =
        String.concat "\n" (List.map GPr.insn_to_string prog) ^ "\nhlt\n"
      in
      match GP.program ~base:0x1000 text with
      | Error _ -> false
      | Ok p ->
        Array.to_list p.GA.insns = prog @ [ G.Halt ]
        && (let image, _ = GE.encode_program p.GA.insns in
            Bytes.equal image p.GA.image))

let prop_host_parse_pretty =
  QCheck.Test.make ~name:"host parse(pretty i) = Ok i" ~count:2000
    (QCheck.make Test_util.gen_host_insn ~print:HPr.insn_to_string)
    (fun insn -> HP.insn (HPr.insn_to_string insn) = Ok insn)

(* --- regressions: the asymmetries the fuzzer flushed out ------------------ *)

(* OCaml's %#x renders a negative int as 63-bit two's complement; the
   printers now emit an explicit sign, which the parsers read back. *)
let test_negative_disp_roundtrip () =
  let insn =
    G.Load { dst = G.EAX; src = G.addr_base ~disp:(-8) G.ESI; size = G.S4; signed = false }
  in
  Alcotest.(check string) "sign-correct hex" "movl -0x8(%esi), %eax"
    (GPr.insn_to_string insn);
  Alcotest.(check bool) "reparses" true
    (GP.insn "movl -0x8(%esi), %eax" = Ok insn)

(* The 32-bit displacement/target fields reject out-of-range values
   instead of wrapping silently through Int32.of_int. *)
let test_encode_field_guards () =
  let huge_disp =
    G.Store { src = G.EAX; dst = G.addr_abs 0x1_0000_0000; size = G.S4 }
  in
  (try
     ignore (GE.encode huge_disp);
     Alcotest.fail "expected Invalid_argument for a 33-bit displacement"
   with Invalid_argument _ -> ());
  try
    ignore (GE.encode (G.Jmp 0x1_0000_0000));
    Alcotest.fail "expected Invalid_argument for a 33-bit branch target"
  with Invalid_argument _ -> ()

(* Scale bits are meaningful only with an index; a flag byte carrying
   them without one must not decode (it would break encode∘decode = id
   on the re-encode). *)
let test_decode_rejects_noncanonical_flags () =
  let bytes =
    GE.encode (G.Load { dst = G.EAX; src = G.addr_abs 0; size = G.S4; signed = false })
  in
  Bytes.set bytes 3 '\x04';
  match GD.decode bytes ~pos:0 with
  | Error { reason; _ } ->
    Alcotest.(check bool) "reports the flags" true
      (String.length reason > 0)
  | Ok (insn, _) ->
    Alcotest.failf "non-canonical flags decoded as %s" (GPr.insn_to_string insn)

(* --- parser diagnostics ---------------------------------------------------- *)

let guest_error text =
  match GP.insn text with
  | Error e -> e
  | Ok i -> Alcotest.failf "%S unexpectedly parsed as %s" text (GPr.insn_to_string i)

let test_guest_error_positions () =
  let e = guest_error "bogus $1, %eax" in
  Alcotest.(check int) "mnemonic column" 1 e.GP.col;
  let e = guest_error "movl $5, %foo" in
  Alcotest.(check bool) "bad register points past the comma" true (e.GP.col >= 10);
  let e = guest_error "movl $5," in
  Alcotest.(check bool) "truncated line reports a column" true (e.GP.col > 0)

let test_guest_program_error_line () =
  match GP.program "nop\nnop\nbogus\n" with
  | Error e -> Alcotest.(check int) "third line" 3 e.GP.line
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_host_error_positions () =
  let check_err text =
    match HP.insn text with
    | Error e -> e
    | Ok i -> Alcotest.failf "%S unexpectedly parsed as %s" text (HPr.insn_to_string i)
  in
  let e = check_err "frobnicate r1, r2, r3" in
  Alcotest.(check int) "mnemonic column" 1 e.HP.col;
  let e = check_err "addq r1, r2, r99" in
  Alcotest.(check bool) "bad register located" true (e.HP.col > 10)

(* --- size-suffix dispatch --------------------------------------------------- *)

(* The suffix and the operand shapes together pick the constructor:
   register ALU vs. memory RMW vs. the mov family. *)
let test_suffix_dispatch () =
  Alcotest.(check bool) "addl to memory is an RMW" true
    (GP.insn "addl %eax, (%esp)"
    = Ok (G.Rmw { op = G.Add; dst = G.addr_base G.ESP; src = G.Reg G.EAX; size = G.S4 }));
  Alcotest.(check bool) "addb picks the byte width" true
    (GP.insn "addb $1, 0x3(%ebp)"
    = Ok (G.Rmw { op = G.Add; dst = G.addr_base ~disp:3 G.EBP; src = G.Imm 1l; size = G.S1 }));
  Alcotest.(check bool) "movsw store is rejected" true
    (Result.is_error (GP.insn "movsw %eax, (%esp)"));
  Alcotest.(check bool) "movq between registers is rejected" true
    (Result.is_error (GP.insn "movq %eax, %ebx"));
  Alcotest.(check bool) "shll to memory is rejected (not an RMW op)" true
    (Result.is_error (GP.insn "shll $2, (%esp)"));
  Alcotest.(check bool) "8-byte RMW is rejected" true
    (Result.is_error (GP.insn "addq $1, (%esp)"))

(* --- program-level: labels and directives ---------------------------------- *)

let test_program_labels () =
  let text =
    "top:\n  movl $2, %eax\nloop:\n  subl $1, %eax\n  cmpl $0, %eax\n  jne loop\n  \
     jmp done\ndone:\n  hlt\n"
  in
  match GP.program ~base:0x2000 text with
  | Error e -> Alcotest.failf "parse failed: %a" GP.pp_error e
  | Ok p ->
    Alcotest.(check int) "base honoured" 0x2000 p.GA.base;
    (match p.GA.insns.(3) with
    | G.Jcc { target; _ } -> Alcotest.(check int) "backward label" p.GA.offsets.(1) target
    | i -> Alcotest.failf "expected jcc, got %s" (GPr.insn_to_string i));
    (match p.GA.insns.(4) with
    | G.Jmp target -> Alcotest.(check int) "forward label" p.GA.offsets.(5) target
    | i -> Alcotest.failf "expected jmp, got %s" (GPr.insn_to_string i))

let test_program_base_directive () =
  (match GP.program ".base 0x4000\nnop\nhlt\n" with
  | Ok p -> Alcotest.(check int) "directive base" 0x4000 p.GA.base
  | Error e -> Alcotest.failf "parse failed: %a" GP.pp_error e);
  match GP.program "nop\n.base 0x2000\nhlt\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ".base after code accepted"

(* Source-level errors, which both assemblers report through the shared
   source layer: each case is written once per ISA, with the same
   expected diagnostic. [single] parses one instruction instead of a
   program. *)
let source_errors =
  [ ( "undefined labels, first in source order",
      false,
      "jmp zeta\njmp alpha\njmp beta\nhlt\n",
      " br zeta\n br alpha\n br beta\n nop\n",
      {|line 1, column 5: undefined label "zeta"|} );
    ( "duplicate label at its second definition",
      false,
      "l:\nnop\nl:\nhlt\n",
      "l:\nnop\nl:\nnop\n",
      {|line 3, column 1: label "l" already defined on line 1|} );
    ( "comment-only program",
      false,
      "# only a comment\n",
      "; only a comment\n",
      "line 2, column 1: program has no instructions" );
    ( "label target in a single instruction",
      true,
      "jmp out",
      " br out",
      {|line 1, column 5: label "out" cannot be resolved outside a program|} );
    ( "blank single instruction",
      true,
      "  // nothing",
      "  // nothing",
      "line 1, column 1: expected an instruction" ) ]

let test_source_error (_, single, guest, host, expected) () =
  let check isa = function
    | Ok () -> Alcotest.failf "%s: accepted, expected %s" isa expected
    | Error e ->
      Alcotest.(check string) isa expected (Format.asprintf "%a" GP.pp_error e)
  in
  let discard r = Result.map ignore r in
  check "guest" (if single then discard (GP.insn guest) else discard (GP.program guest));
  check "host" (if single then discard (HP.insn host) else discard (HP.program host))

let test_host_program_labels () =
  let text = "  lda r1, 2(zero)\nspin:\n  subq r1, #1, r1\n  bne r1, spin\n  br out\nout:\n  nop\n" in
  match HP.program text with
  | Error e -> Alcotest.failf "parse failed: %a" HP.pp_error e
  | Ok code ->
    Alcotest.(check int) "length" 5 (Array.length code);
    (match code.(2) with
    | H.Bcond { target; _ } -> Alcotest.(check int) "backward label is an index" 1 target
    | i -> Alcotest.failf "expected bcond, got %s" (HPr.insn_to_string i));
    match code.(3) with
    | H.Br { ra; target } ->
      Alcotest.(check int) "discard register" 31 ra;
      Alcotest.(check int) "forward label" 4 target
    | i -> Alcotest.failf "expected br, got %s" (HPr.insn_to_string i)

(* --- the committed example workloads --------------------------------------- *)

let tour_path = Test_util.find_file "examples/asm/tour.asm"

let stack_path = Test_util.find_file "examples/asm/stack.asm"

let wild_store_path = Test_util.find_file "examples/asm/wild_store.asm"

(* The hand-written transcription of stack.frames must assemble to the
   exact byte image of the generated benchmark. *)
let test_stack_asm_image_identical () =
  let generated =
    (W.Workload.instantiate "stack.frames").W.Workload.program.W.Gen.asm_program
  in
  match GP.program (Test_util.slurp stack_path) with
  | Error e -> Alcotest.failf "stack.asm: %a" GP.pp_error e
  | Ok p ->
    Alcotest.(check int) "base" generated.GA.base p.GA.base;
    Alcotest.(check bool) "byte-identical image" true
      (Bytes.equal generated.GA.image p.GA.image)

(* tour.asm flows through the workload loader: it halts, and its
   hand-written misalignments show up in the measured row. *)
let test_tour_asm_loads () =
  let w = W.Workload.instantiate tour_path in
  Alcotest.(check bool) "row measures MDAs" true (w.W.Workload.row.W.Spec.mdas > 0.0);
  Alcotest.(check bool) "expected_mdas positive" true
    (w.W.Workload.program.W.Gen.expected_mdas > 0);
  Alcotest.(check bool) "expected_refs cover the MDAs" true
    (w.W.Workload.program.W.Gen.expected_refs
    >= w.W.Workload.program.W.Gen.expected_mdas)

(* --- the fuzzer itself ------------------------------------------------------ *)

let test_fuzz_smoke () =
  let r = W.Asmfuzz.run ~seed:11 ~streams:50 ~max_len:24 () in
  (match r.W.Asmfuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "fuzz found a %s %s mismatch: %s\n%s" f.W.Asmfuzz.isa
      f.W.Asmfuzz.stage f.W.Asmfuzz.detail f.W.Asmfuzz.repro);
  Alcotest.(check int) "both ISAs covered" 100 r.W.Asmfuzz.streams;
  Alcotest.(check bool) "generated work" true (r.W.Asmfuzz.insns > 500)

let test_fuzz_deterministic () =
  let a = W.Asmfuzz.run ~seed:33 ~streams:20 ~max_len:16 () in
  let b = W.Asmfuzz.run ~seed:33 ~streams:20 ~max_len:16 () in
  Alcotest.(check int) "same stream count" a.W.Asmfuzz.streams b.W.Asmfuzz.streams;
  Alcotest.(check int) "same instruction count" a.W.Asmfuzz.insns b.W.Asmfuzz.insns

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_guest_parse_pretty; prop_guest_program_text; prop_host_parse_pretty ]

let suite =
  [ ( "asm.guest",
      [ Alcotest.test_case "exhaustive parse∘pretty = id" `Quick
          test_guest_parse_pretty_id;
        Alcotest.test_case "exhaustive decode∘encode = id" `Quick test_guest_codec_id;
        Alcotest.test_case "printer injective" `Quick test_guest_printer_injective;
        Alcotest.test_case "error positions" `Quick test_guest_error_positions;
        Alcotest.test_case "program error line" `Quick test_guest_program_error_line;
        Alcotest.test_case "size-suffix dispatch" `Quick test_suffix_dispatch;
        Alcotest.test_case "labels and directives" `Quick test_program_labels;
        Alcotest.test_case ".base directive" `Quick test_program_base_directive ] );
    ( "asm.host",
      [ Alcotest.test_case "exhaustive parse∘pretty = id" `Quick
          test_host_parse_pretty_id;
        Alcotest.test_case "exhaustive decode∘encode = id" `Quick test_host_codec_id;
        Alcotest.test_case "printer injective" `Quick test_host_printer_injective;
        Alcotest.test_case "error positions" `Quick test_host_error_positions;
        Alcotest.test_case "labels" `Quick test_host_program_labels ] );
    ( "asm.source",
      List.map
        (fun ((name, _, _, _, _) as c) -> Alcotest.test_case name `Quick (test_source_error c))
        source_errors );
    ( "asm.regressions",
      [ Alcotest.test_case "negative displacement hex" `Quick
          test_negative_disp_roundtrip;
        Alcotest.test_case "32-bit field guards" `Quick test_encode_field_guards;
        Alcotest.test_case "non-canonical addr flags" `Quick
          test_decode_rejects_noncanonical_flags ] );
    ( "asm.examples",
      [ Alcotest.test_case "stack.asm image identical" `Quick
          test_stack_asm_image_identical;
        Alcotest.test_case "tour.asm loads as a workload" `Quick test_tour_asm_loads ] );
    ( "asm.fuzz",
      [ Alcotest.test_case "smoke: zero mismatches" `Quick test_fuzz_smoke;
        Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic ] );
    ("asm.properties", qcheck_cases) ]
