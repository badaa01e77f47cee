(* Differential testing: the phase-1 interpreter and the translated host
   code are two implementations of x86lite semantics; on any program they
   must compute identical final architectural state (registers + memory),
   whatever MDA mechanism drives translation and patching.

   Programs are generated as structured loop nests (the translator
   requires conditions to be tested via Cmp/Test, which the generator
   guarantees, like real compiled code does). Memory operands mix
   absolute and register-based addressing at arbitrary alignments, so
   misalignment traps, patched sequences, multi-version code and plain
   accesses all get exercised. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module Machine = Mda_machine
module Bt = Mda_bt
module Spec = Mda_mech.Mech_spec

let data = Bt.Layout.data_base

let region = 1024 (* bytes of data the random programs touch *)

(* --- random structured program generator ------------------------------- *)

type prog = GI.insn list list (* loop bodies; each becomes a counted loop *)

let gen_body_insn : GI.insn QCheck.Gen.t =
  let open QCheck.Gen in
  (* registers the loop harness does not own; EBX is reserved as a
     known-safe pointer for register-based addressing *)
  let reg = oneofl [ GI.EAX; GI.EDX; GI.ESI; GI.EDI; GI.EBP ] in
  let size = oneofl [ GI.S1; GI.S2; GI.S4; GI.S8 ] in
  let off = int_range 0 (region - 16) in
  let addr = map (fun o -> GI.addr_abs (data + o)) off in
  let imm = map Int32.of_int (int_range (-1000) 1000) in
  let operand = oneof [ map (fun r -> GI.Reg r) reg; map (fun i -> GI.Imm i) imm ] in
  oneof
    [ (let* dst = reg and* src = addr and* size = size and* signed = bool in
       return (GI.Load { dst; src; size; signed }));
      (let* src = reg and* dst = addr and* size = size in
       return (GI.Store { src; dst; size }));
      (* pointer-based accesses through the reserved EBX *)
      (let* dst = reg and* size = size and* signed = bool and* d = int_range 0 8 in
       return (GI.Load { dst; src = GI.addr_base ~disp:d GI.EBX; size; signed }));
      (let* src = reg and* size = size and* d = int_range 0 8 in
       return (GI.Store { src; dst = GI.addr_base ~disp:d GI.EBX; size }));
      (let* dst = reg and* imm = imm in
       return (GI.Mov_imm { dst; imm }));
      (let* dst = reg and* src = reg in
       return (GI.Mov_reg { dst; src }));
      (let* op = oneofl (Array.to_list GI.all_binops) in
       let* dst = reg and* src = operand in
       return (GI.Binop { op; dst; src }));
      (let* a = reg and* b = operand in
       return (GI.Cmp { a; b }));
      (let* a = reg and* b = operand in
       return (GI.Test { a; b }));
      (let* dst = reg and* o = off in
       return (GI.Lea { dst; src = GI.addr_abs (data + o) }));
      (* memory read-modify-writes, absolute and pointer-based *)
      (let* op = oneofl [ GI.Add; GI.Sub; GI.And; GI.Or; GI.Xor ] in
       let* o = off and* src = operand and* size = oneofl [ GI.S1; GI.S2; GI.S4 ] in
       return (GI.Rmw { op; dst = GI.addr_abs (data + o); src; size }));
      (let* op = oneofl [ GI.Add; GI.Xor ] in
       let* d = int_range 0 8 and* src = operand and* size = oneofl [ GI.S2; GI.S4 ] in
       return (GI.Rmw { op; dst = GI.addr_base ~disp:d GI.EBX; src; size }));
      return GI.Nop ]

let gen_prog : prog QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 4) (list_size (int_range 3 12) gen_body_insn)

(* Build the runnable program: each body becomes a loop with its own
   pointer-setup so register-based accesses stay in bounds. *)
let build (p : prog) =
  let asm = G.Asm.create () in
  let open G.Asm in
  movi asm GI.ESP Bt.Layout.stack_top;
  movi asm GI.EBX (data + 8);
  (* safe default pointer *)
  List.iteri
    (fun i body ->
      (* iteration counts straddle the heating thresholds: some loops stay
         interpreted, others get translated under every mechanism
         (default heating = 50), exercising both engines and the
         interp->translated handoff *)
      movi asm GI.ECX (if i mod 2 = 0 then 60 + (5 * i) else 7 + i);
      let top = fresh_label asm in
      jmp asm top;
      bind asm top;
      List.iter (fun i -> insn asm i) body;
      (* re-establish a safe pointer in case the body clobbered EBX *)
      movi asm GI.EBX (data + 8 + (4 * i));
      addi asm GI.ECX (-1);
      cmpi asm GI.ECX 0;
      jcc asm GI.Gt top)
    p;
  halt asm;
  let program = assemble ~base:Bt.Layout.guest_code_base asm in
  let mem = Machine.Memory.create ~size_bytes:Bt.Layout.mem_size in
  Machine.Memory.load_image mem ~addr:program.G.Asm.base program.G.Asm.image;
  (* deterministic non-zero data so loads see structure *)
  for i = 0 to region - 1 do
    Machine.Memory.write_u8 mem (data + i) ((i * 37) land 0xFF)
  done;
  (program, mem)

type state = { regs : int64 array; mem_hash : int64 }

let snapshot (cpu_regs : int -> int64) mem =
  let mem_hash = ref 0L in
  for i = 0 to region - 1 do
    mem_hash :=
      Int64.add
        (Int64.mul !mem_hash 1099511628211L)
        (Int64.of_int (Machine.Memory.read_u8 mem (data + i)))
  done;
  { regs = Array.init 8 (fun i -> if i = 4 then 0L else cpu_regs i);
    (* ESP excluded: the stack pointer is engine-managed identically but
       uninteresting *)
    mem_hash = !mem_hash }

let run_interp p =
  let program, mem = build p in
  let t = Bt.Runtime.create ~mem () in
  let _ = Bt.Runtime.interpret t ~entry:program.G.Asm.base in
  snapshot (fun i -> Machine.Cpu.get t.Bt.Runtime.cpu i) mem

let run_mech mechanism p =
  let program, mem = build p in
  let t = Bt.Runtime.create ~config:(Bt.Runtime.default_config mechanism) ~mem () in
  let _ = Bt.Runtime.run t ~entry:program.G.Asm.base in
  snapshot (fun i -> Machine.Cpu.get t.Bt.Runtime.cpu i) mem

let state_eq a b = a.regs = b.regs && Int64.equal a.mem_hash b.mem_hash

let print_prog (p : prog) =
  String.concat "\n---\n"
    (List.map
       (fun body ->
         String.concat "\n" (List.map Mda_guest.Pretty.insn_to_string body))
       p)

(* Every labelled configuration, of either family, that needs no
   preparation; test_analysis covers the static-analysis ones. *)
let mechanisms =
  List.filter_map (function _, Spec.Mech s -> Some s | _, Spec.Interp _ -> None) Spec.run_labels
  @ List.map snd Spec.stress_labels
  |> List.sort_uniq compare
  |> List.filter_map (fun s ->
         match Spec.plain s with
         | m -> Some (Spec.describe s, m)
         | exception Invalid_argument _ -> None)

let equiv_test (label, mechanism) =
  QCheck.Test.make
    ~name:(Printf.sprintf "interp == translated (%s)" label)
    ~count:150
    (QCheck.make gen_prog ~print:print_prog)
    (fun p -> state_eq (run_interp p) (run_mech mechanism p))

let qcheck_cases = List.map (fun m -> QCheck_alcotest.to_alcotest (equiv_test m)) mechanisms

let suite = [ ("equivalence", qcheck_cases) ]
