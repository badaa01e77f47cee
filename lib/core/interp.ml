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
   it merely reports each memory event to the observer. In [Native]
   mode a line-crossing access pays the hardware split-access penalty —
   that is how X86 hardware actually services MDAs.

   The loop allocates nothing per guest instruction (DESIGN.md, "Hot
   paths do not rely on cross-module inlining"): registers are read and
   written straight from [cpu.rf] with the unboxed [%caml_bytes_*64u]
   primitives, values move between memory and a register slot with
   [Memory.load_rf]/[store_rf], the arithmetic is inlined from this
   module, and the observer receives each access as plain ints and
   bools. [exec_block ~on_mem] is a thin adapter that builds the
   [mem_event] record for callers that want one. *)

module G = Mda_guest.Isa
module Machine = Mda_machine
module Cpu = Machine.Cpu

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

type observer = guest_addr:int -> ea:int -> size:int -> store:bool -> aligned:bool -> unit

type outcome = Fallthrough of int | Halted

exception Guest_fault of string

(* [run_block]'s result after a Halt; guest addresses are unsigned. *)
let halted = -1

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Register-file slots: guest register i is slot i (G.reg_index), the
   flags are the translator's compare registers (Host.Isa.cmp_a/cmp_b/
   cmp_diff), checked below. [scratch] is the host CPU's literal-operand
   slot: every host operate instruction writes it before reading it, so
   the interpreter may park a value there between a load and a store. *)
let[@inline] slot (r : G.reg) =
  match r with
  | EAX -> 0
  | ECX -> 1
  | EDX -> 2
  | EBX -> 3
  | ESP -> 4
  | EBP -> 5
  | ESI -> 6
  | EDI -> 7

let fl_a = 10

let fl_b = 11

let fl_diff = 12

let scratch = 32

let () =
  Array.iter (fun r -> assert (slot r = G.reg_index r)) G.all_regs;
  assert (
    fl_a = Mda_host.Isa.cmp_a && fl_b = Mda_host.Isa.cmp_b && fl_diff = Mda_host.Isa.cmp_diff)

let[@inline] rd rf s = get64 rf (s lsl 3)

let[@inline] wr rf s v = set64 rf (s lsl 3) v

let[@inline] get rf r = rd rf (slot r)

let[@inline] set rf r v = wr rf (slot r) v

(* Sign-extend the low [bits] bits of [v]. *)
let[@inline] sext bits v = Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits)

let[@inline] sext32 v = sext 32 v

(* Sign-extend slot [s] in place from [bytes] wide. *)
let[@inline] sext_slot rf s bytes = wr rf s (sext (8 * bytes) (rd rf s))

(* Effective address, mod 2^32. Native ints wrap mod 2^63, which keeps
   the low 32 bits exact. *)
let[@inline] eff_addr rf ({ base; index; disp } : G.addr) =
  let b = match base with Some r -> Int64.to_int (get rf r) | None -> 0 in
  let i = match index with Some (r, scale) -> Int64.to_int (get rf r) * scale | None -> 0 in
  (b + i + disp) land 0xFFFFFFFF

let[@inline] operand_value rf = function
  | G.Reg r -> get rf r
  | G.Imm i -> Int64.of_int32 i

let[@inline] set_flags rf a b =
  wr rf fl_a a;
  wr rf fl_b b;
  wr rf fl_diff (Int64.sub a b)

let cond_holds (cpu : Cpu.t) (c : G.cond) =
  let rf = cpu.rf in
  let a = rd rf fl_a and b = rd rf fl_b in
  match c with
  | Eq -> Int64.equal (rd rf fl_diff) 0L
  | Ne -> not (Int64.equal (rd rf fl_diff) 0L)
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Ult -> Int64.to_int a land 0xFFFFFFFF < Int64.to_int b land 0xFFFFFFFF
  | Ule -> Int64.to_int a land 0xFFFFFFFF <= Int64.to_int b land 0xFFFFFFFF

let[@inline] binop_result (op : G.binop) a b =
  match op with
  | Add -> sext32 (Int64.add a b)
  | Sub -> sext32 (Int64.sub a b)
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Imul -> sext32 (Int64.mul a b)
  | Shl -> sext32 (Int64.shift_left a (Int64.to_int b land 31))
  | Shr ->
    sext32 (Int64.shift_right_logical (Int64.logand a 0xFFFFFFFFL) (Int64.to_int b land 31))
  | Sar -> sext32 (Int64.shift_right a (Int64.to_int b land 31))

let[@inline] charge (cpu : Cpu.t) c = cpu.cycles <- cpu.cycles + c

(* One guest data access between memory and register slot [s]. The
   bookkeeping comes first, in this order: the split-access (native) or
   profiling (interpreted) charge, the observer, the memory-op count,
   the cache hierarchy. Memory is touched last, so a faulting access
   leaves all of that done and the register file untouched. *)
let access (cpu : Cpu.t) mode (observe : observer) ~guest_addr ~ea ~size ~store s =
  let aligned = ea land (size - 1) = 0 in
  (match mode with
  | Native -> if not aligned then charge cpu cpu.cost.split_access
  | Interpreted { profile } -> if profile then charge cpu cpu.cost.interp_profile);
  observe ~guest_addr ~ea ~size ~store ~aligned;
  cpu.mem_ops <- cpu.mem_ops + 1;
  charge cpu (Machine.Hierarchy.access_data cpu.hier ~addr:ea ~size);
  if store then Machine.Memory.store_rf cpu.mem ~addr:ea ~size cpu.rf ~src:s
  else Machine.Memory.load_rf cpu.mem ~addr:ea ~size cpu.rf ~dst:s

let[@inline] load cpu mode observe ~guest_addr ~ea ~size s =
  access cpu mode observe ~guest_addr ~ea ~size ~store:false s

let[@inline] store cpu mode observe ~guest_addr ~ea ~size s =
  access cpu mode observe ~guest_addr ~ea ~size ~store:true s

(* Execute [block] once and return the guest address control goes to
   next, or [halted]. *)
let run_block (cpu : Cpu.t) mode (block : Block.t) (observe : observer) =
  let rf = cpu.rf in
  let native = match mode with Native -> true | Interpreted _ -> false in
  let insn_cost = if native then cpu.cost.base_insn else cpu.cost.interp_guest_insn in
  let branch_cost = if native then cpu.cost.taken_branch else 0 in
  let insns = block.insns and addrs = block.addrs in
  let n = Array.length insns in
  let running = -2 in
  let next = ref running and i = ref 0 in
  while !next = running do
    if !i >= n then
      raise (Guest_fault (Printf.sprintf "block at %#x fell off its end" block.start));
    let guest_addr = addrs.(!i) in
    charge cpu insn_cost;
    (match insns.(!i) with
    | G.Load { dst; src; size; signed } ->
      let d = slot dst in
      load cpu mode observe ~guest_addr ~ea:(eff_addr rf src) ~size:(G.size_bytes size) d;
      (match size with
      | G.S1 -> if signed then sext_slot rf d 1
      | G.S2 -> if signed then sext_slot rf d 2
      | G.S4 -> sext_slot rf d 4 (* 32-bit regs: longword convention *)
      | G.S8 -> ())
    | G.Store { src; dst; size } ->
      store cpu mode observe ~guest_addr ~ea:(eff_addr rf dst) ~size:(G.size_bytes size)
        (slot src)
    | G.Mov_imm { dst; imm } -> set rf dst (Int64.of_int32 imm)
    | G.Mov_reg { dst; src } -> set rf dst (get rf src)
    | G.Binop { op; dst; src } ->
      let r = binop_result op (get rf dst) (operand_value rf src) in
      set rf dst r;
      set_flags rf r 0L
    | G.Cmp { a; b } -> set_flags rf (get rf a) (operand_value rf b)
    | G.Test { a; b } -> set_flags rf (Int64.logand (get rf a) (operand_value rf b)) 0L
    | G.Lea { dst; src } -> set rf dst (sext32 (Int64.of_int (eff_addr rf src)))
    | G.Rmw { op; dst; src; size } ->
      (* one static instruction, two accesses at the same address,
         through the scratch slot *)
      let size = G.size_bytes size in
      let ea = eff_addr rf dst in
      load cpu mode observe ~guest_addr ~ea ~size scratch;
      if size = 4 then sext_slot rf scratch 4;
      let r = binop_result op (rd rf scratch) (operand_value rf src) in
      wr rf scratch r;
      store cpu mode observe ~guest_addr ~ea ~size scratch;
      set_flags rf r 0L
    | G.Push r ->
      let sp = (Int64.to_int (get rf G.ESP) - 4) land 0xFFFFFFFF in
      set rf G.ESP (Int64.of_int sp);
      store cpu mode observe ~guest_addr ~ea:sp ~size:4 (slot r)
    | G.Pop r ->
      (* the register first, then ESP: [Pop ESP] leaves ESP = sp + 4 *)
      let sp = Int64.to_int (get rf G.ESP) land 0xFFFFFFFF in
      let d = slot r in
      load cpu mode observe ~guest_addr ~ea:sp ~size:4 d;
      sext_slot rf d 4;
      set rf G.ESP (Int64.of_int ((sp + 4) land 0xFFFFFFFF))
    | G.Jmp t ->
      charge cpu branch_cost;
      next := t
    | G.Jcc { cond; target } ->
      if cond_holds cpu cond then begin
        charge cpu branch_cost;
        next := target
      end
      else next := Block.addr_after block !i
    | G.Call t ->
      let sp = (Int64.to_int (get rf G.ESP) - 4) land 0xFFFFFFFF in
      set rf G.ESP (Int64.of_int sp);
      wr rf scratch (Int64.of_int (Block.addr_after block !i));
      store cpu mode observe ~guest_addr ~ea:sp ~size:4 scratch;
      next := t
    | G.Ret ->
      let sp = Int64.to_int (get rf G.ESP) land 0xFFFFFFFF in
      load cpu mode observe ~guest_addr ~ea:sp ~size:4 scratch;
      set rf G.ESP (Int64.of_int ((sp + 4) land 0xFFFFFFFF));
      next := Int64.to_int (rd rf scratch) land 0xFFFFFFFF
    | G.Nop -> ()
    | G.Halt -> next := halted);
    incr i
  done;
  !next

(* Execute [block] once. [on_mem] observes every data reference as a
   [mem_event]. Returns where control goes next. *)
let exec_block cpu mode block ~on_mem =
  let observe ~guest_addr ~ea ~size ~store ~aligned =
    on_mem { guest_addr; ea; size; aligned; kind = (if store then `Store else `Load) }
  in
  let next = run_block cpu mode block observe in
  if next = halted then Halted else Fallthrough next
