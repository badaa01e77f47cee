(* The alphalite host CPU.

   Executes translated code out of the BT's code cache, charging cycles
   per the cost model and the cache hierarchy, and — centrally for this
   paper — detecting misaligned effective addresses on alignment-
   restricted loads/stores and delivering them to the registered
   misalignment handler, which models the OS trap + signal path.

   The handler may answer:
   - [Emulate]: the access has been performed on its behalf (we carry it
     out byte-wise here, as the OS fixup handler would with the MDA code
     sequence); execution continues after the faulting instruction.
   - [Retry]: the handler rewrote the code cache (patched the faulting
     slot into a branch); the same pc is re-fetched and re-executed.

   Code is fetched through a callback because the code cache grows and is
   patched *while the CPU runs* — exactly the aliasing that makes real
   DBT patching delicate. *)

open Mda_util
module H = Mda_host.Isa
module Sem = Mda_host.Semantics

type exit_reason =
  | Exit_next_guest of int
  | Exit_dyn_guest of int (* guest address read from the register *)
  | Exit_halt

type trap_action = Emulate | Retry

exception Fatal of string

exception Out_of_fuel

type t = {
  regs : int64 array;
  mem : Memory.t;
  hier : Hierarchy.t;
  cost : Cost_model.t;
  code_base : int; (* simulated address of code-cache slot 0, for the I-cache *)
  mutable cycles : int64;
  mutable insns : int64;
  mutable mem_ops : int64;
  mutable align_traps : int64;
  mutable handler : (pc:int -> addr:int -> H.insn -> trap_action) option;
}

let create ?(code_base = 0x0100_0000) ~mem ~hier ~cost () =
  { regs = Array.make H.num_regs 0L;
    mem;
    hier;
    cost;
    code_base;
    cycles = 0L;
    insns = 0L;
    mem_ops = 0L;
    align_traps = 0L;
    handler = None }

let set_handler t h = t.handler <- Some h

let get t r = if r = H.r31 then 0L else t.regs.(r)

let set t r v = if r <> H.r31 then t.regs.(r) <- v

let charge t c = t.cycles <- Int64.add t.cycles (Int64.of_int c)

(* The simulated clock: cycles retired so far. Trace timestamps read
   this (never wall clock), which is what makes traces deterministic. *)
let now t = t.cycles

let ea t rb disp = Int64.to_int (get t rb) + disp

(* Perform a data access with cache accounting. *)
let do_load t ~addr ~size =
  t.mem_ops <- Int64.add t.mem_ops 1L;
  charge t (Hierarchy.access_data t.hier ~addr ~size);
  Memory.read t.mem ~addr ~size

let do_store t ~addr ~size v =
  t.mem_ops <- Int64.add t.mem_ops 1L;
  charge t (Hierarchy.access_data t.hier ~addr ~size);
  Memory.write t.mem ~addr ~size v

let operand_value t = function
  | H.Rb r -> get t r
  | H.Lit v -> Int64.of_int v

(* Byte-wise emulation of a misaligned access, as the OS fixup handler
   performs it. The cycle cost of the handler body is folded into
   [cost.align_trap]. *)
let emulate_access t insn ~addr =
  match insn with
  | H.Ldwu { ra; _ } -> set t ra (Memory.read t.mem ~addr ~size:2)
  | H.Ldl { ra; _ } -> set t ra (Bits.sign_extend ~size:4 (Memory.read t.mem ~addr ~size:4))
  | H.Ldq { ra; _ } -> set t ra (Memory.read t.mem ~addr ~size:8)
  | H.Stw { ra; _ } -> Memory.write t.mem ~addr ~size:2 (get t ra)
  | H.Stl { ra; _ } -> Memory.write t.mem ~addr ~size:4 (get t ra)
  | H.Stq { ra; _ } -> Memory.write t.mem ~addr ~size:8 (get t ra)
  | _ -> raise (Fatal "emulate_access: not an alignment-restricted access")

(* Execute one non-control instruction. Raises [Align_trap] via the
   handler protocol. *)
type step = Next | Goto of int | Stop of exit_reason

exception Misaligned of { addr : int; dir : [ `Load | `Store ]; size : int }

let exec_mem t insn =
  match insn with
  | H.Ldbu { ra; rb; disp } ->
    set t ra (do_load t ~addr:(ea t rb disp) ~size:1);
    Next
  | H.Ldwu { ra; rb; disp } ->
    let addr = ea t rb disp in
    if addr land 1 <> 0 then raise (Misaligned { addr; dir = `Load; size = 2 });
    set t ra (do_load t ~addr ~size:2);
    Next
  | H.Ldl { ra; rb; disp } ->
    let addr = ea t rb disp in
    if addr land 3 <> 0 then raise (Misaligned { addr; dir = `Load; size = 4 });
    set t ra (Bits.sign_extend ~size:4 (do_load t ~addr ~size:4));
    Next
  | H.Ldq { ra; rb; disp } ->
    let addr = ea t rb disp in
    if addr land 7 <> 0 then raise (Misaligned { addr; dir = `Load; size = 8 });
    set t ra (do_load t ~addr ~size:8);
    Next
  | H.Ldq_u { ra; rb; disp } ->
    (* never traps: the access is forced onto the enclosing quadword *)
    let addr = ea t rb disp land lnot 7 in
    set t ra (do_load t ~addr ~size:8);
    Next
  | H.Stb { ra; rb; disp } ->
    do_store t ~addr:(ea t rb disp) ~size:1 (get t ra);
    Next
  | H.Stw { ra; rb; disp } ->
    let addr = ea t rb disp in
    if addr land 1 <> 0 then raise (Misaligned { addr; dir = `Store; size = 2 });
    do_store t ~addr ~size:2 (get t ra);
    Next
  | H.Stl { ra; rb; disp } ->
    let addr = ea t rb disp in
    if addr land 3 <> 0 then raise (Misaligned { addr; dir = `Store; size = 4 });
    do_store t ~addr ~size:4 (get t ra);
    Next
  | H.Stq { ra; rb; disp } ->
    let addr = ea t rb disp in
    if addr land 7 <> 0 then raise (Misaligned { addr; dir = `Store; size = 8 });
    do_store t ~addr ~size:8 (get t ra);
    Next
  | H.Stq_u { ra; rb; disp } ->
    let addr = ea t rb disp land lnot 7 in
    do_store t ~addr ~size:8 (get t ra);
    Next
  | _ -> raise (Fatal "exec_mem: not a memory instruction")

let exec t pc insn =
  match insn with
  | H.Ldbu _ | H.Ldwu _ | H.Ldl _ | H.Ldq _ | H.Ldq_u _ | H.Stb _ | H.Stw _ | H.Stl _
  | H.Stq _ | H.Stq_u _ -> exec_mem t insn
  | H.Lda { ra; rb; disp } ->
    set t ra (Int64.add (get t rb) (Int64.of_int disp));
    Next
  | H.Ldah { ra; rb; disp } ->
    set t ra (Int64.add (get t rb) (Int64.of_int (disp * 65536)));
    Next
  | H.Opr { op; ra; rb; rc } ->
    set t rc (Sem.oper op (get t ra) (operand_value t rb));
    Next
  | H.Bytem { op; width; high; ra; rb; rc } ->
    set t rc (Sem.bytemanip op ~width ~high (get t ra) (operand_value t rb));
    Next
  | H.Br { ra; target } ->
    set t ra (Int64.of_int (pc + 1));
    charge t t.cost.Cost_model.taken_branch;
    Goto target
  | H.Bcond { cond; ra; target } ->
    let v = get t ra in
    let taken =
      match cond with
      | H.Beq -> Int64.equal v 0L
      | H.Bne -> not (Int64.equal v 0L)
      | H.Blt -> Int64.compare v 0L < 0
      | H.Ble -> Int64.compare v 0L <= 0
      | H.Bgt -> Int64.compare v 0L > 0
      | H.Bge -> Int64.compare v 0L >= 0
    in
    if taken then begin
      charge t t.cost.Cost_model.taken_branch;
      Goto target
    end
    else Next
  | H.Jmp { ra; rb } ->
    let target = Int64.to_int (get t rb) in
    set t ra (Int64.of_int (pc + 1));
    charge t t.cost.Cost_model.taken_branch;
    Goto target
  | H.Monitor kind ->
    charge t t.cost.Cost_model.monitor_exit;
    Stop
      (match kind with
      | H.Next_guest g -> Exit_next_guest g
      | H.Dyn_guest r -> Exit_dyn_guest (Int64.to_int (get t r))
      | H.Prog_halt -> Exit_halt)
  | H.Nop -> Next

(* [run t ~fetch ~entry ~fuel] executes from code-cache index [entry]
   until a [Monitor] instruction stops it, returning the exit reason and
   the index of the [Monitor] that fired (the chaining site). [fetch pc]
   supplies the (possibly just-patched) instruction at [pc]. [fuel]
   bounds the number of executed instructions; exceeding it raises
   [Out_of_fuel]. *)
let run t ~fetch ~entry ~fuel =
  let pc = ref entry in
  let remaining = ref fuel in
  let result = ref None in
  while !result = None do
    if !remaining <= 0 then raise Out_of_fuel;
    decr remaining;
    let insn = fetch !pc in
    (* instruction fetch: 4 bytes per insn at code_base *)
    charge t (Hierarchy.access_code t.hier ~addr:(t.code_base + (!pc * Mda_host.Encode.bytes_per_insn)));
    charge t t.cost.Cost_model.base_insn;
    t.insns <- Int64.add t.insns 1L;
    match exec t !pc insn with
    | Next -> incr pc
    | Goto target -> pc := target
    | Stop reason -> result := Some (reason, !pc)
    | exception Misaligned { addr; dir = _; size = _ } -> begin
      t.align_traps <- Int64.add t.align_traps 1L;
      charge t t.cost.Cost_model.align_trap;
      match t.handler with
      | None ->
        raise
          (Fatal
             (Printf.sprintf "unhandled alignment trap at pc %d addr %#x" !pc addr))
      | Some h -> begin
        match h ~pc:!pc ~addr insn with
        | Emulate ->
          emulate_access t insn ~addr;
          incr pc
        | Retry -> () (* re-fetch the (patched) slot *)
      end
    end
  done;
  match !result with Some r -> r | None -> assert false
