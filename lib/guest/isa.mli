(** x86lite — the guest instruction set.

    A simplified model of 32-bit X86 keeping exactly the properties the
    paper's MDA mechanisms are sensitive to: byte-granular memory
    operands of 1/2/4/8 bytes with {e no} alignment restriction,
    base+index×scale+displacement addressing, a small register file, and
    real control flow (conditional branches, calls, returns).

    Value convention: architectural registers are 32-bit, carried
    sign-extended in 64-bit simulator values (the Alpha longword
    convention, matching what translated host code produces); [S8]
    accesses move raw 64-bit values and model the x87/SSE spills that
    produce most MDAs in the paper's FP benchmarks. *)

(** The eight general-purpose registers. *)
type reg = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

(** [reg_index r] is the 0..7 encoding of [r]. *)
val reg_index : reg -> int

(** Inverse of {!reg_index}. Raises [Invalid_argument] outside 0..7. *)
val reg_of_index : int -> reg

(** All registers, in encoding order. *)
val all_regs : reg array

(** AT&T-style name, e.g. ["%eax"]. *)
val reg_name : reg -> string

(** Memory access width. *)
type size = S1 | S2 | S4 | S8

val size_bytes : size -> int

(** Raises [Invalid_argument] unless the argument is 1, 2, 4 or 8. *)
val size_of_bytes : int -> size

val all_sizes : size array

(** Branch conditions, evaluated against the flags established by the
    most recent [Cmp]/[Test]/[Binop]. [Ult]/[Ule] are the unsigned
    comparisons (x86 [jb]/[jbe]). *)
type cond = Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule

val all_conds : cond array

val cond_index : cond -> int

val cond_of_index : int -> cond

(** x86 suffix name, e.g. ["ne"]. *)
val cond_name : cond -> string

(** Memory operand: [disp + base + index*scale]; scale ∈ {1,2,4,8}. *)
type addr = { base : reg option; index : (reg * int) option; disp : int }

(** [addr_base ?disp r] is [disp(r)]. *)
val addr_base : ?disp:int -> reg -> addr

(** [addr_indexed ?disp ~base ~index ~scale ()] is
    [disp(base,index,scale)]. Raises on an invalid scale. *)
val addr_indexed : ?disp:int -> base:reg -> index:reg -> scale:int -> unit -> addr

(** Absolute address. *)
val addr_abs : int -> addr

(** Two-operand ALU operations; [Imul] is the 32-bit multiply. *)
type binop = Add | Sub | And | Or | Xor | Shl | Shr | Sar | Imul

val all_binops : binop array

val binop_index : binop -> int

val binop_of_index : int -> binop

val binop_name : binop -> string

(** Register or 32-bit immediate source operand. *)
type operand = Reg of reg | Imm of int32

(** Instructions. Branch targets are absolute guest addresses — the
    assembler ({!Asm}) resolves labels before building values of this
    type. *)
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
      (** x86 memory read-modify-write ("addl %eax, disp(%ebx)"): one
          static instruction, a load then a store at the same address.
          [op] must satisfy {!rmw_op_ok}. *)
  | Push of reg
  | Pop of reg
  | Jmp of int
  | Jcc of { cond : cond; target : int }
  | Call of int
  | Ret
  | Nop
  | Halt

(** Data-memory footprint of an instruction: direction and width.
    [Push]/[Call] are 4-byte stores; [Pop]/[Ret] 4-byte loads; [Lea]
    touches nothing. *)
val memory_access : insn -> ([ `Load | `Store ] * size) option

(** Operations x86 supports as memory read-modify-writes. *)
val rmw_op_ok : binop -> bool

(** Registers written by an instruction (architectural state only;
    flags are tracked separately). Static analyses use this to havoc
    exactly what an unmodelled instruction could change. *)
val defs : insn -> reg list

(** Registers read (operands, addressing modes, the implicit stack
    pointer). *)
val uses : insn -> reg list

(** Can this instruction terminate a basic block? *)
val is_block_end : insn -> bool

(** Statically known successor addresses (fall-through excluded). *)
val static_targets : insn -> int list
