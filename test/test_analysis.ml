(* Tests for the static alignment analysis (lib/analysis).

   Three layers:
   - unit tests of the congruence lattice (order, join/widen, classify);
   - qcheck membership soundness of every abstract operation against the
     interpreter's concrete semantics ([Interp.binop_result]);
   - the headline property: on randomly generated structured programs,
     every [Align_aligned] / [Align_misaligned] verdict of the dataflow
     pass agrees with *every* address the interpreter actually observes
     at that instruction (1000 programs). The generator deliberately
     mixes provable pointers (immediates, lea), data-dependent pointers
     the analysis must give up on (loaded from memory), and
     data-dependent pointers whose alignment is still provable (masked
     with [and $-4], forced odd with [or $1]) — plus misaligned stack
     traffic via an ESP nudge, calls, and read-modify-writes. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module Machine = Mda_machine
module Bt = Mda_bt
module Spec = Mda_mech.Mech_spec
module A = Mda_analysis
module C = Mda_analysis.Congruence

let data = Bt.Layout.data_base

(* --- congruence lattice units ------------------------------------------- *)

let pp_c = Fmt.of_to_string (fun c -> Format.asprintf "%a" C.pp c)

let c_testable = Alcotest.testable pp_c C.equal

let test_lattice_basics () =
  Alcotest.check c_testable "join exact self" (C.const 6L) (C.join (C.const 6L) (C.const 6L));
  (* 6 and 10 agree on low 2 bits (..10) and disagree at bit 2 *)
  Alcotest.check c_testable "join exact/exact"
    (C.congr ~stride:4 ~offset:2)
    (C.join (C.const 6L) (C.const 10L));
  Alcotest.check c_testable "join with bot" (C.const 6L) (C.join C.bot (C.const 6L));
  Alcotest.check c_testable "join to top" C.top
    (C.join (C.const 2L) (C.const 3L));
  Alcotest.(check bool) "leq exact<=congr" true (C.leq (C.const 6L) (C.congr ~stride:2 ~offset:0));
  Alcotest.(check bool) "leq congr refines" true
    (C.leq (C.congr ~stride:8 ~offset:6) (C.congr ~stride:2 ~offset:0));
  Alcotest.(check bool) "leq strict" false
    (C.leq (C.congr ~stride:2 ~offset:0) (C.congr ~stride:8 ~offset:6));
  Alcotest.(check bool) "bot below all" true (C.leq C.bot (C.const 0L))

let test_classify () =
  let open Bt.Mechanism in
  let check name expect width c =
    Alcotest.(check string) name (align_class_name expect) (align_class_name (C.classify ~width c))
  in
  check "byte always aligned" Align_aligned 1 C.top;
  check "exact aligned" Align_aligned 4 (C.const (Int64.of_int (data + 8)));
  check "exact misaligned" Align_misaligned 4 (C.const (Int64.of_int (data + 2)));
  check "congr aligned" Align_aligned 4 (C.congr ~stride:4 ~offset:0);
  check "congr misaligned" Align_misaligned 2 (C.congr ~stride:2 ~offset:1);
  check "coarse congr unknown" Align_unknown 8 (C.congr ~stride:4 ~offset:0);
  check "top unknown" Align_unknown 4 C.top;
  check "bot unknown" Align_unknown 4 C.bot

(* --- qcheck: abstract operations vs concrete semantics ------------------ *)

(* A concrete 32-bit-convention value together with a random sound
   abstraction of it. *)
let gen_abstraction : (int64 * C.t) QCheck.Gen.t =
  let open QCheck.Gen in
  let* v = map Int64.of_int (int_range (-0x8000_0000) 0x7FFF_FFFF) in
  let* bits = int_bound 31 in
  let* choice = int_bound 2 in
  let abs =
    match choice with
    | 0 -> C.const v
    | 1 -> C.top
    | _ ->
      C.congr ~stride:(1 lsl bits) ~offset:(Int64.to_int (Int64.logand v 0xFFFF_FFFFL))
  in
  return (v, abs)

let prop_transfer_sound =
  QCheck.Test.make ~name:"transfer is membership-sound" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         let* op = oneofl (Array.to_list GI.all_binops) in
         let* a = gen_abstraction and* b = gen_abstraction in
         return (op, a, b)))
    (fun (op, (va, a), (vb, b)) ->
      C.mem (Bt.Interp.binop_result op va vb) (C.transfer op a b))

let prop_join_sound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_abstraction gen_abstraction))
    (fun ((va, a), (vb, b)) ->
      let j = C.join a b in
      C.leq a j && C.leq b j && C.mem va j && C.mem vb j && C.equal j (C.widen a b))

let prop_add_mul_sound =
  QCheck.Test.make ~name:"address arithmetic is membership-sound" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         let* a = gen_abstraction and* b = gen_abstraction in
         let* scale = oneofl [ 1; 2; 4; 8 ] in
         return (a, b, scale)))
    (fun ((va, a), (vb, b), scale) ->
      C.mem (Int64.add va vb) (C.add a b)
      && C.mem (Int64.mul va (Int64.of_int scale)) (C.mul_const a scale)
      && C.mem (Int64.logand va 0xFFFFFFFFL) (C.low32 a)
      && C.mem (Mda_util.Bits.sign_extend ~size:4 va) (C.sext32 a))

(* --- the soundness property on whole programs --------------------------- *)

(* One pointer-driven loop: how EBX is established decides what the
   analysis can know about it. *)
type pointer =
  | Provable of int (* movi: exact *)
  | Hidden of int (* round-tripped through memory: top *)
  | Hidden_masked of int (* ... then and $-4: provably 4-aligned *)
  | Hidden_odd of int (* ... then or $1: provably odd *)

type site = { width : int; disp : int; kind : [ `Load | `Store | `Rmw ] }

type loop = {
  pointer : pointer;
  iters : int;
  nudge : int option; (* addi EBX, n each iteration *)
  sites : site list;
  abs_site : (int * int) option; (* absolute (offset, width) access *)
}

type prog = { loops : loop list; esp_nudge : bool; with_call : bool }

let gen_site : site QCheck.Gen.t =
  let open QCheck.Gen in
  let* kind = oneofl [ `Load; `Store; `Rmw ] in
  (* x86 has no 8-byte read-modify-write *)
  let* width = oneofl (match kind with `Rmw -> [ 2; 4 ] | _ -> [ 2; 4; 8 ]) in
  let* disp = int_bound 16 in
  return { width; disp; kind }

let gen_loop : loop QCheck.Gen.t =
  let open QCheck.Gen in
  let* off = int_bound 63 in
  let* pointer =
    oneofl [ Provable off; Hidden off; Hidden_masked off; Hidden_odd off ]
  in
  let* iters = int_range 3 25 in
  let* nudge = opt (oneofl [ -4; -2; -1; 1; 2; 4; 8 ]) in
  let* sites = list_size (int_range 1 3) gen_site in
  let* abs_site = opt (pair (int_bound 63) (oneofl [ 2; 4; 8 ])) in
  return { pointer; iters; nudge; sites; abs_site }

let gen_prog : prog QCheck.Gen.t =
  let open QCheck.Gen in
  let* loops = list_size (int_range 1 3) gen_loop in
  let* esp_nudge = bool in
  let* with_call = bool in
  return { loops; esp_nudge; with_call }

(* Scratch cell for the memory round-trips, away from the data the
   accesses touch. *)
let cell = data + 0x800

let emit_sites asm sites =
  List.iter
    (fun s ->
      let size = GI.size_of_bytes s.width in
      let dst = GI.addr_base ~disp:s.disp GI.EBX in
      match s.kind with
      | `Load -> G.Asm.load asm ~dst:GI.EAX ~src:dst ~size ()
      | `Store -> G.Asm.store asm ~src:GI.EDX ~dst ~size ()
      | `Rmw -> G.Asm.rmw asm ~op:GI.Add ~dst ~src:(GI.Imm 1l) ~size ())
    sites

let build (p : prog) =
  let asm = G.Asm.create () in
  let open G.Asm in
  movi asm GI.ESP Bt.Layout.stack_top;
  let call_label = if p.with_call then Some (fresh_label asm) else None in
  if p.esp_nudge then begin
    (* misaligned stack traffic the analysis must prove misaligned *)
    addi asm GI.ESP (-2);
    insn asm (GI.Push GI.EDI);
    insn asm (GI.Pop GI.EDI);
    addi asm GI.ESP 2
  end;
  List.iter
    (fun l ->
      (match l.pointer with
      | Provable off -> movi asm GI.EBX (data + off)
      | Hidden off | Hidden_masked off | Hidden_odd off -> begin
        (* round-trip through memory: concrete at run time, opaque to
           the analysis *)
        movi asm GI.EAX (data + off);
        store asm ~src:GI.EAX ~dst:(GI.addr_abs cell) ~size:GI.S4 ();
        load asm ~dst:GI.EBX ~src:(GI.addr_abs cell) ~size:GI.S4 ();
        match l.pointer with
        | Hidden_masked _ -> binop asm GI.And GI.EBX (GI.Imm (-4l))
        | Hidden_odd _ -> binop asm GI.Or GI.EBX (GI.Imm 1l)
        | _ -> ()
      end);
      (match l.abs_site with
      | Some (off, width) ->
        load asm ~dst:GI.EDX ~src:(GI.addr_abs (data + off)) ~size:(GI.size_of_bytes width) ()
      | None -> ());
      movi asm GI.ECX l.iters;
      let top = fresh_label asm in
      bind asm top;
      emit_sites asm l.sites;
      (match l.nudge with Some n -> addi asm GI.EBX n | None -> ());
      (match call_label with
      | Some f when l.iters mod 2 = 0 -> call asm f
      | _ -> ());
      addi asm GI.ECX (-1);
      cmpi asm GI.ECX 0;
      jcc asm GI.Gt top)
    p.loops;
  halt asm;
  (match call_label with
  | Some f ->
    bind asm f;
    (* the subroutine's own pointer and accesses *)
    movi asm GI.ESI (data + 0x100);
    load asm ~dst:GI.EAX ~src:(GI.addr_base ~disp:2 GI.ESI) ~size:GI.S4 ();
    store asm ~src:GI.EAX ~dst:(GI.addr_base ~disp:8 GI.ESI) ~size:GI.S8 ();
    ret asm
  | None -> ());
  let program = assemble ~base:Bt.Layout.guest_code_base asm in
  let mem = Machine.Memory.create ~size_bytes:Bt.Layout.mem_size in
  Machine.Memory.load_image mem ~addr:program.G.Asm.base program.G.Asm.image;
  (program, mem)

let print_prog (p : prog) =
  let program, _ = build p in
  String.concat "\n"
    (Array.to_list (Array.map Mda_guest.Pretty.insn_to_string program.G.Asm.insns))

(* The headline property: static verdicts never contradict the
   interpreter. Every profiled reference at an [Align_aligned] site must
   be aligned ([mdas = 0]); every one at an [Align_misaligned] site must
   be misaligned ([mdas = refs]). *)
let check_sound (p : prog) =
  let program, mem = build p in
  let analysis = A.Dataflow.analyze mem ~entry:program.G.Asm.base in
  let _, profile =
    Bt.Runtime.interpret_program
      ~mode:(Bt.Interp.Interpreted { profile = true })
      ~mem ~entry:program.G.Asm.base ()
  in
  let bad = ref [] in
  Bt.Profile.iter_sites profile (fun addr site ->
      match A.Dataflow.classify analysis addr with
      | Bt.Mechanism.Align_aligned ->
        if site.Bt.Profile.mdas <> 0 then
          bad :=
            Printf.sprintf "%#x: classified aligned, %d/%d refs misaligned" addr
              site.Bt.Profile.mdas site.Bt.Profile.refs
            :: !bad
      | Bt.Mechanism.Align_misaligned ->
        if site.Bt.Profile.mdas <> site.Bt.Profile.refs then
          bad :=
            Printf.sprintf "%#x: classified misaligned, only %d/%d refs misaligned" addr
              site.Bt.Profile.mdas site.Bt.Profile.refs
            :: !bad
      | Bt.Mechanism.Align_unknown -> ());
  if !bad <> [] then QCheck.Test.fail_report (String.concat "\n" !bad);
  true

let prop_analysis_sound =
  QCheck.Test.make ~name:"dataflow verdicts agree with the interpreter" ~count:1000
    (QCheck.make gen_prog ~print:print_prog)
    check_sound

(* The generator must not be vacuous: over a fixed batch of programs,
   both aligned and misaligned verdicts must actually occur, including
   at least one misaligned verdict derived through a data-dependent
   (Hidden_odd) pointer. *)
let test_generator_not_vacuous () =
  let gen = QCheck.Gen.generate ~n:80 ~rand:(Random.State.make [| 42 |]) gen_prog in
  let aligned = ref 0 and mis = ref 0 and unknown = ref 0 in
  List.iter
    (fun p ->
      let program, mem = build p in
      let analysis = A.Dataflow.analyze mem ~entry:program.Mda_guest.Asm.base in
      let al, mi, un = A.Dataflow.census analysis in
      aligned := !aligned + al;
      mis := !mis + mi;
      unknown := !unknown + un)
    gen;
  Alcotest.(check bool) "aligned verdicts occur" true (!aligned > 0);
  Alcotest.(check bool) "misaligned verdicts occur" true (!mis > 0);
  Alcotest.(check bool) "unknown verdicts occur" true (!unknown > 0)

(* End-to-end: the SA-guided mechanism computes the same final state as
   pure interpretation, whatever the verdicts were (a wrong verdict may
   cost a trap, never correctness). Reuses the differential harness of
   Test_equiv. *)
let sa_equiv_test (label, unknown) =
  QCheck.Test.make
    ~name:(Printf.sprintf "interp == translated (%s)" label)
    ~count:100
    (QCheck.make Test_equiv.gen_prog ~print:Test_equiv.print_prog)
    (fun p ->
      let image () =
        let program, mem = Test_equiv.build p in
        (program.G.Asm.base, mem)
      in
      let subject = { Spec.name = "random program"; image; train = image } in
      let mech = (Spec.prepare subject (Spec.Static_analysis { unknown })).Spec.mechanism in
      Test_equiv.state_eq (Test_equiv.run_interp p) (Test_equiv.run_mech mech p))

(* --- the interprocedural engine on the stack-frame microbenchmark ------- *)

(* stack.frames is hand-written so that the two engines separate
   exactly: every effective address is an ESP-relative frame slot, so
   verdicts hinge on tracking ESP through call/ret. The committed
   golden file (test/golden/census-stack.txt) holds the full site
   tables; these tests pin the structural claims. *)

let stack_analysis ?max_blocks mode =
  let w = Mda_workloads.Workload.instantiate "stack.frames" in
  let mem = Mda_workloads.Workload.fresh_memory w in
  let entry = Mda_workloads.Workload.entry w in
  (A.Dataflow.analyze ?max_blocks ~mode mem ~entry, entry)

let test_stack_census () =
  let inter, _ = stack_analysis A.Dataflow.Interprocedural in
  let intra, _ = stack_analysis A.Dataflow.Intraprocedural in
  let ia, im, iu = A.Dataflow.census inter in
  let xa, xm, xu = A.Dataflow.census intra in
  Alcotest.(check (triple int int int)) "interprocedural census" (17, 1, 0) (ia, im, iu);
  Alcotest.(check (triple int int int)) "intraprocedural census" (12, 0, 6) (xa, xm, xu);
  (* the strict-improvement claims, independent of the exact counts *)
  Alcotest.(check bool) "strictly fewer unknowns" true (iu < xu);
  Alcotest.(check bool) "misaligned slot proven only interprocedurally" true (im > xm)

(* Every callee of stack.frames is balanced: the ESP displacement
   analysis must prove [fn_esp_delta = Some 0] for all three, with a
   reached Ret and a complete body — that is the fact that lets the
   callers keep an exact ESP across the calls. *)
let test_stack_functions () =
  let a, entry = stack_analysis A.Dataflow.Interprocedural in
  let callees =
    List.filter (fun f -> f.A.Dataflow.fn_entry <> entry) a.A.Dataflow.functions
  in
  Alcotest.(check int) "three callees discovered" 3 (List.length callees);
  List.iter
    (fun f ->
      let name = Printf.sprintf "fn %#x" f.A.Dataflow.fn_entry in
      Alcotest.(check bool) (name ^ " complete") true f.A.Dataflow.fn_complete;
      Alcotest.(check bool) (name ^ " returns") true f.A.Dataflow.fn_returns;
      Alcotest.(check (option int)) (name ^ " balanced") (Some 0) f.A.Dataflow.fn_esp_delta;
      Alcotest.(check bool) (name ^ " has call sites") true (f.A.Dataflow.fn_calls > 0))
    callees;
  let main = List.filter (fun f -> f.A.Dataflow.fn_entry = entry) a.A.Dataflow.functions in
  match main with
  | [ f ] -> Alcotest.(check bool) "entry function complete" true f.A.Dataflow.fn_complete
  | _ -> Alcotest.fail "entry function not discovered exactly once"

(* A blown block budget must be *reported*, not silently degraded: the
   result carries the region entry and the block count where discovery
   stopped, and completeness drops. The blast radius differs by design:
   the intraprocedural supergraph loses every verdict, while the
   interprocedural engine contains the damage to the function that blew
   the budget — callees that decoded completely keep their verdicts. *)
let test_budget_overflow () =
  List.iter
    (fun mode ->
      let a, entry = stack_analysis ~max_blocks:2 mode in
      let name = A.Dataflow.mode_name mode in
      Alcotest.(check bool) (name ^ ": incomplete") false a.A.Dataflow.complete;
      (match a.A.Dataflow.overflow with
      | None -> Alcotest.failf "%s: budget overflow not reported" name
      | Some (region, seen) ->
        Alcotest.(check int) (name ^ ": overflow region is the entry function") entry region;
        Alcotest.(check bool) (name ^ ": blocks-seen recorded") true (seen > 0 && seen <= 2));
      let aligned, misaligned, _unknown = A.Dataflow.census a in
      (match mode with
      | A.Dataflow.Intraprocedural ->
        (* one overflow poisons the whole supergraph *)
        Alcotest.(check (pair int int)) (name ^ ": no verdicts survive") (0, 0)
          (aligned, misaligned)
      | A.Dataflow.Interprocedural ->
        (* damage contained: some callee verdicts survive, but strictly
           fewer than at full budget (17 aligned + 1 misaligned) *)
        Alcotest.(check bool) (name ^ ": complete callees keep verdicts") true
          (aligned + misaligned > 0);
        Alcotest.(check bool) (name ^ ": blown function's verdicts lost") true
          (aligned + misaligned < 18));
      (* and a full budget reports no overflow *)
      let full, _ = stack_analysis mode in
      Alcotest.(check bool) (name ^ ": full budget complete") true full.A.Dataflow.complete;
      (match full.A.Dataflow.overflow with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: spurious overflow at full budget" name))
    [ A.Dataflow.Interprocedural; A.Dataflow.Intraprocedural ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_transfer_sound;
      prop_join_sound;
      prop_add_mul_sound;
      prop_analysis_sound;
      sa_equiv_test ("sa-eh", Bt.Mechanism.Sa_fallback);
      sa_equiv_test ("sa-seq", Bt.Mechanism.Sa_seq) ]

let suite =
  [ ( "analysis.lattice",
      [ Alcotest.test_case "order and join" `Quick test_lattice_basics;
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "generator not vacuous" `Quick test_generator_not_vacuous ] );
    ( "analysis.interprocedural",
      [ Alcotest.test_case "stack census: inter beats intra" `Quick test_stack_census;
        Alcotest.test_case "callees balanced and complete" `Quick test_stack_functions;
        Alcotest.test_case "budget overflow reported" `Quick test_budget_overflow ] );
    ("analysis.properties", qcheck_cases) ]
