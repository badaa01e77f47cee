(* x86lite: the guest instruction set.

   A deliberately simplified model of 32-bit X86 that keeps exactly the
   properties the paper's mechanisms are sensitive to:

   - memory operands of 1/2/4/8 bytes with byte-granular addressing and
     *no* alignment restriction (MDAs execute fine on the guest);
   - base + scaled-index + displacement addressing, so the same static
     instruction can touch both aligned and misaligned addresses;
   - a small register file that forces realistic load/store traffic;
   - conditional control flow, calls and returns, so the translator sees
     real basic-block structure.

   Architectural registers are 32-bit (values held sign-extended in
   int64); S8 accesses model x87/SSE-style 8-byte loads and stores, which
   are the main MDA producers in the paper's FP benchmarks. *)

type reg = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

let reg_index = function
  | EAX -> 0 | ECX -> 1 | EDX -> 2 | EBX -> 3
  | ESP -> 4 | EBP -> 5 | ESI -> 6 | EDI -> 7

let reg_of_index = function
  | 0 -> EAX | 1 -> ECX | 2 -> EDX | 3 -> EBX
  | 4 -> ESP | 5 -> EBP | 6 -> ESI | 7 -> EDI
  | n -> invalid_arg (Printf.sprintf "Isa.reg_of_index: %d" n)

let all_regs = [| EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI |]

let reg_name = function
  | EAX -> "%eax" | ECX -> "%ecx" | EDX -> "%edx" | EBX -> "%ebx"
  | ESP -> "%esp" | EBP -> "%ebp" | ESI -> "%esi" | EDI -> "%edi"

(* Access width in bytes. *)
type size = S1 | S2 | S4 | S8

let size_bytes = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

let size_of_bytes = function
  | 1 -> S1 | 2 -> S2 | 4 -> S4 | 8 -> S8
  | n -> invalid_arg (Printf.sprintf "Isa.size_of_bytes: %d" n)

let all_sizes = [| S1; S2; S4; S8 |]

(* Condition codes for Jcc; evaluated against the flags set by the last
   Cmp/Test/Binop. *)
type cond = Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule

let all_conds = [| Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule |]

let cond_index = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3
  | Gt -> 4 | Ge -> 5 | Ult -> 6 | Ule -> 7

let cond_of_index = function
  | 0 -> Eq | 1 -> Ne | 2 -> Lt | 3 -> Le
  | 4 -> Gt | 5 -> Ge | 6 -> Ult | 7 -> Ule
  | n -> invalid_arg (Printf.sprintf "Isa.cond_of_index: %d" n)

let cond_name = function
  | Eq -> "e" | Ne -> "ne" | Lt -> "l" | Le -> "le"
  | Gt -> "g" | Ge -> "ge" | Ult -> "b" | Ule -> "be"

(* Memory operand: [disp + base + index*scale]. Scale is 1, 2, 4 or 8. *)
type addr = { base : reg option; index : (reg * int) option; disp : int }

let addr_base ?(disp = 0) base = { base = Some base; index = None; disp }

let addr_indexed ?(disp = 0) ~base ~index ~scale () =
  if scale <> 1 && scale <> 2 && scale <> 4 && scale <> 8 then
    invalid_arg (Printf.sprintf "Isa.addr_indexed: scale %d" scale);
  { base = Some base; index = Some (index, scale); disp }

let addr_abs disp = { base = None; index = None; disp }

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Sar | Imul

let all_binops = [| Add; Sub; And; Or; Xor; Shl; Shr; Sar; Imul |]

let binop_index = function
  | Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4
  | Shl -> 5 | Shr -> 6 | Sar -> 7 | Imul -> 8

let binop_of_index = function
  | 0 -> Add | 1 -> Sub | 2 -> And | 3 -> Or | 4 -> Xor
  | 5 -> Shl | 6 -> Shr | 7 -> Sar | 8 -> Imul
  | n -> invalid_arg (Printf.sprintf "Isa.binop_of_index: %d" n)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Imul -> "imul"

type operand = Reg of reg | Imm of int32

(* Branch targets are absolute guest addresses (the assembler resolves
   labels before emission). *)
type insn =
  | Load of { dst : reg; src : addr; size : size; signed : bool }
  | Store of { src : reg; dst : addr; size : size }
  | Mov_imm of { dst : reg; imm : int32 }
  | Mov_reg of { dst : reg; src : reg }
  | Binop of { op : binop; dst : reg; src : operand }
  | Cmp of { a : reg; b : operand }
  | Test of { a : reg; b : operand }
  | Lea of { dst : reg; src : addr }
  | Rmw of { op : binop; dst : addr; src : operand; size : size }
      (* x86 read-modify-write on memory: "addl %eax, disp(%ebx)".
         One static instruction, two data accesses at the same address —
         the common shape in real X86 binaries, and an interesting MDA
         case: both halves can misalign. Only Add/Sub/And/Or/Xor, as on
         the common x86 forms. *)
  | Push of reg
  | Pop of reg
  | Jmp of int
  | Jcc of { cond : cond; target : int }
  | Call of int
  | Ret
  | Nop
  | Halt

(* Does the instruction reference data memory, and with which width?
   Push/Pop are 4-byte stack accesses. Lea computes an address without
   touching memory. *)
let memory_access = function
  | Load { size; _ } -> Some (`Load, size)
  | Store { size; _ } -> Some (`Store, size)
  | Rmw { size; _ } -> Some (`Store, size) (* reported by its store half *)
  | Push _ -> Some (`Store, S4)
  | Pop _ -> Some (`Load, S4)
  | Call _ -> Some (`Store, S4)
  | Ret -> Some (`Load, S4)
  | _ -> None

(* Is [op] legal as an x86 memory read-modify-write? *)
let rmw_op_ok = function
  | Add | Sub | And | Or | Xor -> true
  | Shl | Shr | Sar | Imul -> false

(* Registers an addressing mode reads. *)
let addr_regs { base; index; _ } =
  let b = match base with Some r -> [ r ] | None -> [] in
  match index with Some (r, _) -> r :: b | None -> b

(* Registers written by an instruction (architectural state only; flags
   are tracked separately). The static alignment analysis relies on this
   to havoc exactly the registers an unmodelled instruction could
   change, so it stays sound by construction as the ISA grows. *)
let defs = function
  | Load { dst; _ } | Mov_imm { dst; _ } | Mov_reg { dst; _ }
  | Binop { dst; _ } | Lea { dst; _ } -> [ dst ]
  | Pop dst -> [ dst; ESP ]
  | Push _ | Call _ | Ret -> [ ESP ]
  | Store _ | Cmp _ | Test _ | Rmw _ | Jmp _ | Jcc _ | Nop | Halt -> []

(* Registers read by an instruction (operands, addressing modes and the
   implicit stack pointer). *)
let uses insn =
  let of_operand = function Reg r -> [ r ] | Imm _ -> [] in
  match insn with
  | Load { src; _ } -> addr_regs src
  | Store { src; dst; _ } -> src :: addr_regs dst
  | Mov_imm _ -> []
  | Mov_reg { src; _ } -> [ src ]
  | Binop { dst; src; _ } -> dst :: of_operand src
  | Cmp { a; b } | Test { a; b } -> a :: of_operand b
  | Lea { src; _ } -> addr_regs src
  | Rmw { dst; src; _ } -> addr_regs dst @ of_operand src
  | Push r -> [ r; ESP ]
  | Pop _ -> [ ESP ]
  | Call _ | Ret -> [ ESP ]
  | Jmp _ | Jcc _ | Nop | Halt -> []

(* Instructions that can end a basic block. *)
let is_block_end = function
  | Jmp _ | Jcc _ | Call _ | Ret | Halt -> true
  | _ -> false

(* Static successor targets, when they are knowable from the instruction
   alone (fall-through is handled by the block builder). *)
let static_targets = function
  | Jmp t | Call t -> [ t ]
  | Jcc { target; _ } -> [ target ]
  | _ -> []
