(* The guest (x86lite) interpreter — phase 1 of the two-phase translator,
   and, in [Native] mode, a stand-in for running the binary on real X86
   hardware (used by the Figure-1 and Table-I experiments).

   Guest architectural state lives *inside the host CPU's register file*
   using the translator's register convention (guest reg i in host reg i,
   compare operands in R10/R11, difference in R12). This makes the
   interpreter↔translated-code context switch free and — more
   importantly — keeps the two execution engines honest: property tests
   run the same program both ways and require identical final state.

   x86lite value convention: registers are 32-bit, stored sign-extended
   into the 64-bit host registers (the Alpha longword convention, which is
   also what translated code produces). 8-byte loads/stores move raw
   64-bit values (modelling FP/SSE spills, the paper's main MDA source in
   SPEC FP).

   Alignment: the guest ISA permits MDAs, so the interpreter never traps;
   it merely reports each memory event to the profiling hook. In [Native]
   mode a line-crossing access pays the hardware split-access penalty —
   that is how X86 hardware actually services MDAs. *)

open Mda_util
module G = Mda_guest.Isa
module Machine = Mda_machine

type mode =
  | Interpreted of { profile : bool } (* BT phase 1; [profile] charges the
                                         light instrumentation cost *)
  | Native (* direct execution on an MDA-tolerant x86 machine *)

type mem_event = {
  guest_addr : int; (* static instruction address *)
  ea : int; (* effective address *)
  size : int;
  aligned : bool;
  kind : [ `Load | `Store ];
}

type outcome = Fallthrough of int | Halted

exception Guest_fault of string

let guest_reg = G.reg_index

(* Flag registers, shared with translated code (see Host.Isa). *)
let fl_a = Mda_host.Isa.cmp_a

let fl_b = Mda_host.Isa.cmp_b

let fl_diff = Mda_host.Isa.cmp_diff

let get cpu r = Machine.Cpu.get cpu (guest_reg r)

let set cpu r v = Machine.Cpu.set cpu (guest_reg r) v

(* Effective address, mod 2^32. *)
let eff_addr cpu ({ base; index; disp } : G.addr) =
  let b = match base with Some r -> get cpu r | None -> 0L in
  let i =
    match index with
    | Some (r, scale) -> Int64.mul (get cpu r) (Int64.of_int scale)
    | None -> 0L
  in
  let sum = Int64.add (Int64.add b i) (Int64.of_int disp) in
  Int64.to_int (Int64.logand sum 0xFFFFFFFFL)

let operand_value cpu = function
  | G.Reg r -> get cpu r
  | G.Imm i -> Int64.of_int (Int32.to_int i)

let set_flags cpu ~a ~b =
  Machine.Cpu.set cpu fl_a a;
  Machine.Cpu.set cpu fl_b b;
  Machine.Cpu.set cpu fl_diff (Int64.sub a b)

let cond_holds cpu (c : G.cond) =
  let a = Machine.Cpu.get cpu fl_a
  and b = Machine.Cpu.get cpu fl_b
  and d = Machine.Cpu.get cpu fl_diff in
  let ua = Int64.logand a 0xFFFFFFFFL and ub = Int64.logand b 0xFFFFFFFFL in
  match c with
  | Eq -> Int64.equal d 0L
  | Ne -> not (Int64.equal d 0L)
  | Lt -> Int64.compare a b < 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ge -> Int64.compare a b >= 0
  | Ult -> Int64.unsigned_compare ua ub < 0
  | Ule -> Int64.unsigned_compare ua ub <= 0

let binop_result (op : G.binop) a b =
  let trunc32 v = Int64.logand v 0xFFFFFFFFL in
  match op with
  | Add -> Bits.sign_extend ~size:4 (Int64.add a b)
  | Sub -> Bits.sign_extend ~size:4 (Int64.sub a b)
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Imul -> Bits.sign_extend ~size:4 (Int64.mul a b)
  | Shl -> Bits.sign_extend ~size:4 (Int64.shift_left a (Int64.to_int b land 31))
  | Shr ->
    Bits.sign_extend ~size:4
      (Int64.shift_right_logical (trunc32 a) (Int64.to_int b land 31))
  | Sar -> Bits.sign_extend ~size:4 (Int64.shift_right a (Int64.to_int b land 31))

(* Cost of one guest instruction in the current mode, excluding memory
   stalls (those are charged by the access itself). *)
let insn_cost (cost : Machine.Cost_model.t) mode =
  match mode with
  | Interpreted _ -> cost.interp_guest_insn
  | Native -> cost.base_insn

(* Perform one guest data access with cache accounting, split-access
   penalty (native mode) or profiling overhead (interpreted mode), and
   report it. *)
let data_access cpu mode ~on_mem ~guest_addr ~ea ~size ~kind ~write_value =
  let aligned = Bits.is_aligned ~size (Int64.of_int ea) in
  let cost = cpu.Machine.Cpu.cost in
  (match mode with
  | Native -> if not aligned then Machine.Cpu.charge cpu cost.split_access
  | Interpreted { profile } -> if profile then Machine.Cpu.charge cpu cost.interp_profile);
  on_mem { guest_addr; ea; size; aligned; kind };
  cpu.Machine.Cpu.mem_ops <- cpu.Machine.Cpu.mem_ops + 1;
  Machine.Cpu.charge cpu (Machine.Hierarchy.access_data cpu.Machine.Cpu.hier ~addr:ea ~size);
  match kind with
  | `Load -> Machine.Memory.read cpu.Machine.Cpu.mem ~addr:ea ~size
  | `Store ->
    Machine.Memory.write cpu.Machine.Cpu.mem ~addr:ea ~size write_value;
    0L

(* Execute [block] once. [on_mem] observes every data reference (the
   profiler and ground-truth MDA counters hang off this). Returns where
   control goes next. *)
let exec_block cpu mode block ~on_mem =
  let cost = cpu.Machine.Cpu.cost in
  let n = Array.length block.Block.insns in
  let outcome = ref None in
  let i = ref 0 in
  while !outcome = None do
    if !i >= n then
      raise (Guest_fault (Printf.sprintf "block at %#x fell off its end" block.Block.start));
    let insn = block.Block.insns.(!i) in
    let guest_addr = block.Block.addrs.(!i) in
    Machine.Cpu.charge cpu (insn_cost cost mode);
    let load ~ea ~size = data_access cpu mode ~on_mem ~guest_addr ~ea ~size ~kind:`Load ~write_value:0L in
    let store ~ea ~size v =
      ignore (data_access cpu mode ~on_mem ~guest_addr ~ea ~size ~kind:`Store ~write_value:v)
    in
    (match insn with
    | G.Load { dst; src; size; signed } ->
      let sz = G.size_bytes size in
      let raw = load ~ea:(eff_addr cpu src) ~size:sz in
      let v =
        match size with
        | G.S1 | G.S2 -> if signed then Bits.sign_extend ~size:sz raw else raw
        | G.S4 -> Bits.sign_extend ~size:4 raw (* 32-bit regs: longword convention *)
        | G.S8 -> raw
      in
      set cpu dst v;
      incr i
    | G.Store { src; dst; size } ->
      store ~ea:(eff_addr cpu dst) ~size:(G.size_bytes size) (get cpu src);
      incr i
    | G.Mov_imm { dst; imm } ->
      set cpu dst (Int64.of_int (Int32.to_int imm));
      incr i
    | G.Mov_reg { dst; src } ->
      set cpu dst (get cpu src);
      incr i
    | G.Binop { op; dst; src } ->
      let r = binop_result op (get cpu dst) (operand_value cpu src) in
      set cpu dst r;
      set_flags cpu ~a:r ~b:0L;
      incr i
    | G.Cmp { a; b } ->
      set_flags cpu ~a:(get cpu a) ~b:(operand_value cpu b);
      incr i
    | G.Test { a; b } ->
      set_flags cpu ~a:(Int64.logand (get cpu a) (operand_value cpu b)) ~b:0L;
      incr i
    | G.Lea { dst; src } ->
      set cpu dst (Bits.sign_extend ~size:4 (Int64.of_int (eff_addr cpu src)));
      incr i
    | G.Rmw { op; dst; src; size } ->
      (* one static instruction, two accesses at the same address *)
      let sz = G.size_bytes size in
      let ea = eff_addr cpu dst in
      let raw = load ~ea ~size:sz in
      let v = match size with G.S4 -> Bits.sign_extend ~size:4 raw | _ -> raw in
      let r = binop_result op v (operand_value cpu src) in
      store ~ea ~size:sz r;
      set_flags cpu ~a:r ~b:0L;
      incr i
    | G.Push r ->
      let sp = Int64.to_int (Int64.logand (Int64.sub (get cpu G.ESP) 4L) 0xFFFFFFFFL) in
      set cpu G.ESP (Int64.of_int sp);
      store ~ea:sp ~size:4 (get cpu r);
      incr i
    | G.Pop r ->
      let sp = Int64.to_int (Int64.logand (get cpu G.ESP) 0xFFFFFFFFL) in
      let v = load ~ea:sp ~size:4 in
      set cpu r (Bits.sign_extend ~size:4 v);
      set cpu G.ESP (Int64.of_int ((sp + 4) land 0xFFFFFFFF));
      incr i
    | G.Jmp t ->
      (match mode with Native -> Machine.Cpu.charge cpu cost.taken_branch | _ -> ());
      outcome := Some (Fallthrough t)
    | G.Jcc { cond; target } ->
      if cond_holds cpu cond then begin
        (match mode with Native -> Machine.Cpu.charge cpu cost.taken_branch | _ -> ());
        outcome := Some (Fallthrough target)
      end
      else outcome := Some (Fallthrough (Block.addr_after block !i))
    | G.Call t ->
      let ret = Block.addr_after block !i in
      let sp = Int64.to_int (Int64.logand (Int64.sub (get cpu G.ESP) 4L) 0xFFFFFFFFL) in
      set cpu G.ESP (Int64.of_int sp);
      store ~ea:sp ~size:4 (Int64.of_int ret);
      outcome := Some (Fallthrough t)
    | G.Ret ->
      let sp = Int64.to_int (Int64.logand (get cpu G.ESP) 0xFFFFFFFFL) in
      let v = load ~ea:sp ~size:4 in
      set cpu G.ESP (Int64.of_int ((sp + 4) land 0xFFFFFFFF));
      outcome := Some (Fallthrough (Int64.to_int (Int64.logand v 0xFFFFFFFFL)))
    | G.Nop -> incr i
    | G.Halt -> outcome := Some Halted);
    ()
  done;
  match !outcome with Some o -> o | None -> assert false
