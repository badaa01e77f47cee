(** alphalite — the host instruction set.

    A model of the Alpha AXP ISA restricted to what a DBT back end
    needs, with the parts the paper's mechanisms depend on kept at their
    real semantics: strict natural alignment on word/longword/quadword
    loads and stores (a misaligned effective address raises an alignment
    trap), and the unaligned-access idiom — [ldq_u]/[stq_u] plus the
    EXT/INS/MSK byte-manipulation group — exactly as in the Alpha
    Architecture Handbook, so the paper's Figure-2/Figure-5 MDA code
    sequences can be emitted verbatim.

    Register conventions used by the translator (the MDA sequences and
    the patcher both rely on them):
    {v
      R0..R7    guest EAX..EDI
      R10,R11   last Cmp/Test operands     R12  their difference
      R13..R16  translator scratch
      R21..R28  MDA-sequence temporaries
      R31       hardwired zero
    v} *)

(** Register number, 0..31. R31 reads as zero and ignores writes. *)
type reg = int

val num_regs : int

val r31 : reg

(** Raises [Invalid_argument] outside 0..31. *)
val check_reg : reg -> unit

val reg_name : reg -> string

(** Width of the aligned memory operations. *)
type mem_size = M1 | M2 | M4 | M8

val mem_of_bytes : int -> mem_size

(** Integer operate instructions. [Addl]/[Subl] produce sign-extended
    32-bit results (and [addl r31, x, x] is the canonical longword
    sign-extension idiom); [Sextb]/[Sextw] sign-extend operand [b]. *)
type oper =
  | Addq | Subq | Mulq
  | Addl
  | Subl
  | And | Bis | Xor
  | Sll | Srl | Sra
  | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule
  | Sextb | Sextw

val all_opers : oper array

val oper_name : oper -> string

(** The byte-manipulation group: EXTx{L,H}, INSx{L,H}, MSKx{L,H} with
    field widths of 2, 4 or 8 bytes. *)
type bytemanip = Ext | Ins | Msk

val bytemanip_name : bytemanip -> string

(** ["w"], ["l"] or ["q"] for widths 2, 4, 8. *)
val width_letter : int -> string

(** Operate-format second operand: register or 8-bit literal. *)
type operand = Rb of reg | Lit of int

(** Conditional branch tests on a register value vs. zero. *)
type bcond = Beq | Bne | Blt | Ble | Bgt | Bge

val all_bconds : bcond array

val bcond_name : bcond -> string

(** Why translated code hands control back to the BT runtime. *)
type exit_kind =
  | Next_guest of int (** continue at this static guest address *)
  | Dyn_guest of reg (** continue at the guest address in this register *)
  | Prog_halt (** the guest executed Halt *)

(** Instructions. Memory format computes the effective address
    [R[rb] + disp]; branch targets are absolute code-cache indices;
    [Monitor] is the trampoline back to the BT runtime (a real DBT's
    exit stub). *)
type insn =
  | Ldbu of { ra : reg; rb : reg; disp : int }
  | Ldwu of { ra : reg; rb : reg; disp : int } (** requires 2-alignment *)
  | Ldl of { ra : reg; rb : reg; disp : int } (** 4-alignment; sign-extends *)
  | Ldq of { ra : reg; rb : reg; disp : int } (** 8-alignment *)
  | Ldq_u of { ra : reg; rb : reg; disp : int } (** never traps: addr & ~7 *)
  | Stb of { ra : reg; rb : reg; disp : int }
  | Stw of { ra : reg; rb : reg; disp : int }
  | Stl of { ra : reg; rb : reg; disp : int }
  | Stq of { ra : reg; rb : reg; disp : int }
  | Stq_u of { ra : reg; rb : reg; disp : int }
  | Lda of { ra : reg; rb : reg; disp : int } (** ra ← R[rb] + disp *)
  | Ldah of { ra : reg; rb : reg; disp : int } (** ra ← R[rb] + disp·65536 *)
  | Opr of { op : oper; ra : reg; rb : operand; rc : reg }
  | Bytem of { op : bytemanip; width : int; high : bool; ra : reg; rb : operand; rc : reg }
  | Br of { ra : reg; target : int } (** ra ← return address (r31 to discard) *)
  | Bcond of { cond : bcond; ra : reg; target : int }
  | Jmp of { ra : reg; rb : reg }
  | Monitor of exit_kind
  | Nop

val is_mem_access : insn -> bool

(** Direction and width of an access subject to the alignment
    restriction; [None] for byte and [_q_u] accesses (which never
    trap) and non-memory instructions. *)
val alignment_requirement : insn -> ([ `Load | `Store ] * int) option

(** Packs an instruction into a nonnegative int when every field fits
    its expected range (registers 0..31, 16-bit displacements, 8-bit
    literals, nonnegative branch targets and guest addresses); [-1]
    otherwise. Injective over the packable subset, so key equality is
    instruction equality there — the translator's instruction interning
    and the peephole tier's match prefilter both key on it. *)
val pack : insn -> int

(** Family-specific views of {!pack}, for emitters that know the
    constructor statically and want the key without building the
    record. Each equals [pack] applied to the corresponding
    instruction. *)

val pack_lda : reg -> reg -> int -> int

val pack_ldah : reg -> reg -> int -> int

(** {!pack} of an [Opr] whose second operand is known to be a
    register ([pack_opr_r op ra rb rc] is
    [pack (Opr { op; ra; rb = Rb rb; rc })]) or a literal
    ([pack_opr_l op ra v rc] is [pack (Opr { op; ra; rb = Lit v; rc })]). *)

val pack_opr_r : oper -> reg -> reg -> reg -> int

val pack_opr_l : oper -> reg -> int -> reg -> int

val pack_bytem : bytemanip -> width:int -> high:bool -> reg -> operand -> reg -> int

val pack_next_guest : int -> int

val pack_dyn_guest : reg -> int

val pack_br : reg -> int -> int

val pack_bcond : bcond -> reg -> int -> int

val pack_halt : int

(** BT-reserved temporaries (R21..R28). *)
val tmp_regs : reg array

(** Registers translated code must never write (R8, R9, R17..R20, R29,
    R30): outside the guest mapping, the flag convention, the scratch
    set and the MDA temporaries. The translation validator flags any
    write to these as a clobber violation. *)
val reserved_regs : reg array

val is_reserved_reg : reg -> bool

(** Guest register [i] lives in host register [guest_reg_base + i]. *)
val guest_reg_base : int

(** Flag-state registers (see the convention above). *)
val cmp_a : reg

val cmp_b : reg

val cmp_diff : reg

(** Translator scratch registers R13..R16. *)
val scratch0 : reg

val scratch1 : reg

val scratch2 : reg

val scratch3 : reg
