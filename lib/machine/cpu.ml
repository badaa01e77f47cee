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

   [run] reads instructions straight out of the code cache's backing
   array. The cache grows and is patched *while the CPU runs* — exactly
   the aliasing that makes real DBT patching delicate — but only the
   handler changes it mid-run: a patch rewrites a slot of the same
   array, and the out-of-line MDA sequence it emits may move the cache
   to a bigger one. So [run] re-reads the array and its length after
   every handler call, and nowhere else. *)

module H = Mda_host.Isa
module Sem = Mda_host.Semantics

type exit_reason =
  | Exit_next_guest of int
  | Exit_dyn_guest of int (* guest address read from the register *)
  | Exit_halt

type trap_action = Emulate | Retry

exception Fatal of string

exception Out_of_fuel

(* The register file: 34 native-endian int64 slots in one [Bytes.t],
   read and written with the unboxed [%caml_bytes_*64u] primitives.
   Slots 0..31 are the architectural registers; [lit] holds an operate
   instruction's literal operand; [sink] absorbs writes to r31. Slot 31
   is never written, so it reads as zero without a branch. *)
let lit = 32

let sink = 33

type t = {
  rf : Bytes.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  cost : Cost_model.t;
  code_base : int; (* simulated address of code-cache slot 0, for the I-cache *)
  mutable cycles : int;
  mutable insns : int;
  mutable mem_ops : int;
  mutable align_traps : int;
  mutable handler : (pc:int -> addr:int -> H.insn -> trap_action) option;
}

let create ?(code_base = 0x0100_0000) ~mem ~hier ~cost () =
  { rf = Bytes.make ((sink + 1) * 8) '\000';
    mem;
    hier;
    cost;
    code_base;
    cycles = 0;
    insns = 0;
    mem_ops = 0;
    align_traps = 0;
    handler = None }

let set_handler t h = t.handler <- Some h

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The slot a write to register [r] lands in. *)
let[@inline] dst r = if r = H.r31 then sink else r

(* Unchecked register access for the execute loop: an instruction's
   register fields are 0..31 by construction (the translator's constants,
   the host parser's check). *)
let[@inline] rd t r = get64 t.rf (r lsl 3)

let[@inline] wr t r v = set64 t.rf (dst r lsl 3) v

let check_reg r = if r lsr 5 <> 0 then invalid_arg (Printf.sprintf "Cpu: register %d" r)

let get t r =
  check_reg r;
  rd t r

let set t r v =
  check_reg r;
  wr t r v

(* The slot holding an operate instruction's second operand. *)
let[@inline] operand t = function
  | H.Rb r -> r
  | H.Lit v ->
    set64 t.rf (lit lsl 3) (Int64.of_int v);
    lit

(* Sign-extend the longword in register slot [s] in place. *)
let[@inline] sext32 t s =
  set64 t.rf (s lsl 3) (Int64.shift_right (Int64.shift_left (get64 t.rf (s lsl 3)) 32) 32)

let charge t c = t.cycles <- t.cycles + c

(* The simulated clock: cycles retired so far. Trace timestamps read
   this (never wall clock), which is what makes traces deterministic. *)
let now t = Int64.of_int t.cycles

let[@inline] ea t rb disp = Int64.to_int (rd t rb) + disp

(* Perform a data access with cache accounting, between memory and
   register slot [s]. *)
let do_load t ~addr ~size s =
  t.mem_ops <- t.mem_ops + 1;
  charge t (Hierarchy.access_data t.hier ~addr ~size);
  Memory.load_rf t.mem ~addr ~size t.rf ~dst:s

let do_store t ~addr ~size s =
  t.mem_ops <- t.mem_ops + 1;
  charge t (Hierarchy.access_data t.hier ~addr ~size);
  Memory.store_rf t.mem ~addr ~size t.rf ~src:s

(* Byte-wise emulation of a misaligned access, as the OS fixup handler
   performs it. The cycle cost of the handler body is folded into
   [cost.align_trap]. *)
let emulate_access t insn ~addr =
  match insn with
  | H.Ldwu { ra; _ } -> Memory.load_rf t.mem ~addr ~size:2 t.rf ~dst:(dst ra)
  | H.Ldl { ra; _ } ->
    Memory.load_rf t.mem ~addr ~size:4 t.rf ~dst:(dst ra);
    sext32 t (dst ra)
  | H.Ldq { ra; _ } -> Memory.load_rf t.mem ~addr ~size:8 t.rf ~dst:(dst ra)
  | H.Stw { ra; _ } -> Memory.store_rf t.mem ~addr ~size:2 t.rf ~src:ra
  | H.Stl { ra; _ } -> Memory.store_rf t.mem ~addr ~size:4 t.rf ~src:ra
  | H.Stq { ra; _ } -> Memory.store_rf t.mem ~addr ~size:8 t.rf ~src:ra
  | _ -> raise (Fatal "emulate_access: not an alignment-restricted access")

(* Raised by [exec] for a misaligned effective address on an
   alignment-restricted access; [run] delivers it to the handler. It
   carries no address, so raising it allocates nothing: [fault_addr]
   recomputes the address from registers the trap left untouched. *)
exception Misaligned

let[@inline] aligned ~mask addr = if addr land mask <> 0 then raise_notrace Misaligned

let fault_addr t = function
  | H.Ldwu { rb; disp; _ }
  | H.Ldl { rb; disp; _ }
  | H.Ldq { rb; disp; _ }
  | H.Stw { rb; disp; _ }
  | H.Stl { rb; disp; _ }
  | H.Stq { rb; disp; _ } -> ea t rb disp
  | _ -> raise (Fatal "fault_addr: not an alignment-restricted access")

(* Execute one memory instruction. *)
let exec_mem t insn =
  match insn with
  | H.Ldbu { ra; rb; disp } -> do_load t ~addr:(ea t rb disp) ~size:1 (dst ra)
  | H.Ldwu { ra; rb; disp } ->
    let addr = ea t rb disp in
    aligned ~mask:1 addr;
    do_load t ~addr ~size:2 (dst ra)
  | H.Ldl { ra; rb; disp } ->
    let addr = ea t rb disp in
    aligned ~mask:3 addr;
    do_load t ~addr ~size:4 (dst ra);
    sext32 t (dst ra)
  | H.Ldq { ra; rb; disp } ->
    let addr = ea t rb disp in
    aligned ~mask:7 addr;
    do_load t ~addr ~size:8 (dst ra)
  | H.Ldq_u { ra; rb; disp } ->
    (* never traps: the access is forced onto the enclosing quadword *)
    do_load t ~addr:(ea t rb disp land lnot 7) ~size:8 (dst ra)
  | H.Stb { ra; rb; disp } -> do_store t ~addr:(ea t rb disp) ~size:1 ra
  | H.Stw { ra; rb; disp } ->
    let addr = ea t rb disp in
    aligned ~mask:1 addr;
    do_store t ~addr ~size:2 ra
  | H.Stl { ra; rb; disp } ->
    let addr = ea t rb disp in
    aligned ~mask:3 addr;
    do_store t ~addr ~size:4 ra
  | H.Stq { ra; rb; disp } ->
    let addr = ea t rb disp in
    aligned ~mask:7 addr;
    do_store t ~addr ~size:8 ra
  | H.Stq_u { ra; rb; disp } -> do_store t ~addr:(ea t rb disp land lnot 7) ~size:8 ra
  | _ -> raise (Fatal "exec_mem: not a memory instruction")

(* Execute the instruction at [pc] and return the next pc, or -1 after
   a [Monitor] (whose exit reason [run] decodes; a jump to -1 returns
   -1 too). Raises [Misaligned]. *)
let exec t pc insn =
  match insn with
  | H.Ldbu _ | H.Ldwu _ | H.Ldl _ | H.Ldq _ | H.Ldq_u _ | H.Stb _ | H.Stw _ | H.Stl _
  | H.Stq _ | H.Stq_u _ ->
    exec_mem t insn;
    pc + 1
  | H.Lda { ra; rb; disp } ->
    wr t ra (Int64.add (rd t rb) (Int64.of_int disp));
    pc + 1
  | H.Ldah { ra; rb; disp } ->
    wr t ra (Int64.add (rd t rb) (Int64.of_int (disp * 65536)));
    pc + 1
  | H.Opr { op; ra; rb; rc } ->
    Sem.oper_rf op t.rf ~a:ra ~b:(operand t rb) ~dst:(dst rc);
    pc + 1
  | H.Bytem { op; width; high; ra; rb; rc } ->
    Sem.bytemanip_rf op ~width ~high t.rf ~a:ra ~b:(operand t rb) ~dst:(dst rc);
    pc + 1
  | H.Br { ra; target } ->
    wr t ra (Int64.of_int (pc + 1));
    charge t t.cost.Cost_model.taken_branch;
    target
  | H.Bcond { cond; ra; target } ->
    let v = rd t ra in
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
      target
    end
    else pc + 1
  | H.Jmp { ra; rb } ->
    let target = Int64.to_int (rd t rb) in
    wr t ra (Int64.of_int (pc + 1));
    charge t t.cost.Cost_model.taken_branch;
    target
  | H.Monitor _ ->
    charge t t.cost.Cost_model.monitor_exit;
    -1
  | H.Nop -> pc + 1

let is_monitor = function H.Monitor _ -> true | _ -> false

let exit_of t = function
  | H.Monitor (H.Next_guest g) -> Exit_next_guest g
  | H.Monitor (H.Dyn_guest r) -> Exit_dyn_guest (Int64.to_int (rd t r))
  | H.Monitor H.Prog_halt -> Exit_halt
  | _ -> raise (Fatal "exit_of: not a monitor instruction")

(* [run t ~src ~code_of ~len_of ~entry ~fuel] executes from code-cache
   index [entry] until a [Monitor] instruction stops it, returning the
   exit reason and the index of the [Monitor] that fired (the chaining
   site). [code_of src] is the code store and [len_of src] its valid
   length; both are read on entry and again after each handler call.
   [fuel] bounds the number of executed instructions; exceeding it
   raises [Out_of_fuel]. *)
let run t ~src ~code_of ~len_of ~entry ~fuel =
  let code = ref (code_of src) and len = ref (len_of src) in
  let pc = ref entry and remaining = ref fuel and stop = ref (-1) in
  while !stop < 0 do
    if !remaining <= 0 then raise Out_of_fuel;
    decr remaining;
    let here = !pc in
    if here < 0 || here >= !len then
      raise (Fatal (Printf.sprintf "code-cache fetch out of range: %d" here));
    let insn = !code.(here) in
    (* instruction fetch: 4 bytes per insn at code_base *)
    charge t
      (Hierarchy.access_code t.hier
         ~addr:(t.code_base + (here * Mda_host.Encode.bytes_per_insn)));
    charge t t.cost.Cost_model.base_insn;
    t.insns <- t.insns + 1;
    match exec t here insn with
    | -1 when is_monitor insn -> stop := here
    | next -> pc := next (* a wild jump to -1 fails its fetch *)
    | exception Misaligned -> begin
      let addr = fault_addr t insn in
      t.align_traps <- t.align_traps + 1;
      charge t t.cost.Cost_model.align_trap;
      match t.handler with
      | None ->
        raise (Fatal (Printf.sprintf "unhandled alignment trap at pc %d addr %#x" here addr))
      | Some h ->
        (match h ~pc:here ~addr insn with
        | Emulate ->
          emulate_access t insn ~addr;
          pc := here + 1
        | Retry -> () (* re-fetch the (patched) slot *));
        code := code_of src;
        len := len_of src
    end
  done;
  (exit_of t !code.(!stop), !stop)
